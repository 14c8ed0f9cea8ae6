package fleet

import (
	"math"
	"sync"
	"testing"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/sim"
)

// The fuzz fixtures pair the real Gen1 shell with a near-polar shell, so
// candidate windows get exercised both where satellite latitudes top out
// at the inclination and where subsatellite points cross the poles
// (the all-or-nothing degenerate window).
var (
	fuzzOnce     sync.Once
	fuzzMu       sync.Mutex
	fuzzFixtures []*Fleet
)

func fuzzFleets() []*Fleet {
	fuzzOnce.Do(func() {
		gen1 := New(Config{Seed: 1, Terminals: 8})
		polar := New(Config{Seed: 1, Terminals: 8, Shells: []leo.ShellConfig{{
			Name:           "near-polar",
			AltKm:          560,
			InclinationDeg: 86,
			Planes:         20,
			SatsPerPlane:   10,
			PhasingF:       3,
		}}})
		fuzzFixtures = []*Fleet{gen1, polar}
	})
	return fuzzFixtures
}

// FuzzCellIndex is the superset property the whole fast path rests on:
// for ANY terminal position, every enabled satellite that clears the
// elevation mask from that exact position must appear in the candidate
// list of the cell containing the position. Seeds cover the poles, the
// antimeridian, ±90° edge cells and the coverage edge; the fuzzer then
// gets free rein over (lat, lon, epoch, shell).
func FuzzCellIndex(f *testing.F) {
	f.Add(90.0, 0.0, uint8(0), false)
	f.Add(-90.0, 0.0, uint8(1), false)
	f.Add(90.0, 179.99, uint8(2), true)
	f.Add(-90.0, -179.99, uint8(3), true)
	f.Add(0.0, 180.0, uint8(4), false)
	f.Add(0.0, -180.0, uint8(5), false)
	f.Add(0.0, 179.999, uint8(6), true)
	f.Add(53.0, 0.0, uint8(7), false)
	f.Add(61.6, 10.0, uint8(8), false)
	f.Add(-61.6, -170.0, uint8(9), false)
	f.Add(88.7, 44.9, uint8(10), true)
	f.Add(47.61, -122.33, uint8(11), false)
	f.Add(-2.5, 0.0, uint8(12), false)
	f.Add(89.999, -0.001, uint8(13), true)
	f.Fuzz(func(t *testing.T, lat, lon float64, step uint8, polar bool) {
		if math.IsNaN(lat) || math.IsInf(lat, 0) || math.IsNaN(lon) || math.IsInf(lon, 0) {
			t.Skip()
		}
		if lat < -90 || lat > 90 || lon < -360 || lon > 360 {
			t.Skip()
		}
		fuzzMu.Lock()
		defer fuzzMu.Unlock()
		fleets := fuzzFleets()
		fl := fleets[0]
		if polar {
			fl = fleets[1]
		}
		at := sim.Time(int64(step%16) * int64(15*time.Second))
		fl.con.FillSnapshot(&fl.snap, at)
		fl.buildCandidates()

		cell := fl.grid.cellOf(lat, lon)
		have := make(map[int32]bool)
		for _, s := range fl.cands[fl.candStart[cell]:fl.candStart[cell+1]] {
			have[s] = true
		}

		e := geo.LatLon{LatDeg: lat, LonDeg: lon}.ToECEF()
		en := e.Norm()
		for si := range fl.shells {
			m := &fl.shells[si]
			for j, enabled := range m.enabled {
				if !enabled {
					continue
				}
				p := fl.snap.ShellPositions(si)[j]
				dx, dy, dz := p.X-e.X, p.Y-e.Y, p.Z-e.Z
				dn := math.Sqrt(dx*dx + dy*dy + dz*dz)
				sinEl := (dx*e.X + dy*e.Y + dz*e.Z) / (dn * en)
				if sinEl < fl.sinMask {
					continue
				}
				if !have[int32(m.offset+j)] {
					t.Errorf("terminal (%.6f, %.6f) cell %d at %v: visible satellite %d (sinEl %.6f) missing from candidates",
						lat, lon, cell, at, m.offset+j, sinEl)
				}
			}
		}
	})
}
