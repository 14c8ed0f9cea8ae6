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
// (the all-or-nothing degenerate window). Each is a one-terminal fleet:
// the candidate index only covers cells that hold a terminal, so the fuzz
// targets move that terminal to the probe point (placeProbe).
var (
	fuzzOnce     sync.Once
	fuzzMu       sync.Mutex
	fuzzFixtures []*Fleet
)

func fuzzFleets() []*Fleet {
	fuzzOnce.Do(func() {
		gen1 := New(Config{Seed: 1, Terminals: 1})
		polar := New(Config{Seed: 1, Terminals: 1, Shells: []leo.ShellConfig{nearPolarShell()}})
		fuzzFixtures = []*Fleet{gen1, polar}
	})
	return fuzzFixtures
}

// placeProbe stands terminal 0 of a one-terminal fleet at (lat, lon), with
// no serving satellite, and re-derives what New derives from the sorted
// terminal arrays. With one terminal the (cell, placement) order is trivial.
func (f *Fleet) placeProbe(lat, lon float64) {
	e := geo.LatLon{LatDeg: lat, LonDeg: lon}.ToECEF()
	f.lon[0] = lon
	f.px[0], f.py[0], f.pz[0] = e.X, e.Y, e.Z
	f.sat[0] = -1
	f.indexTerminals([]int32{f.grid.cellOf(lat, lon)})
	f.minNorm = f.site(0).norm
}

// fuzzProbe is the two targets' shared front: it rejects inputs that are
// not a position, picks the fixture and stands its terminal at the probe.
// The caller holds fuzzMu until the returned fleet is done with.
func fuzzProbe(t *testing.T, lat, lon float64, polar bool) *Fleet {
	if math.IsNaN(lat) || math.IsInf(lat, 0) || math.IsNaN(lon) || math.IsInf(lon, 0) {
		t.Skip()
	}
	if lat < -90 || lat > 90 || lon < -360 || lon > 360 {
		t.Skip()
	}
	fl := fuzzFleets()[0]
	if polar {
		fl = fuzzFleets()[1]
	}
	fl.placeProbe(lat, lon)
	return fl
}

// fuzzSeeds covers the poles, the antimeridian, ±90° edge cells and the
// coverage edge; the fuzzer then gets free rein over (lat, lon, epoch,
// shell).
func fuzzSeeds(f *testing.F) {
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
}

// FuzzCellIndex is the superset property the whole fast path rests on,
// stated for the index as it is built — over cells that hold a terminal:
// for ANY position a terminal stands at, every enabled satellite that
// clears the elevation mask from that exact position must appear in the
// candidate list of the terminal's cell. On top of that the pruned scan
// must keep what an ascending scan of every satellite keeps, both from no
// previous satellite and, one epoch on, seeded with the one it just chose.
func FuzzCellIndex(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, lat, lon float64, step uint8, polar bool) {
		fuzzMu.Lock()
		defer fuzzMu.Unlock()
		fl := fuzzProbe(t, lat, lon, polar)
		for _, e := range []int64{int64(step % 16), int64(step%16) + 1} {
			at := sim.Time(e * int64(15*time.Second))
			fl.RunEpoch(int(e), at)

			cell := fl.popCells[0]
			have := make(map[int32]bool)
			for _, c := range fl.candidatesOf(0) {
				have[c.id] = true
			}
			want, wantSin := int32(-1), -2.0
			for si := range fl.shells {
				m := &fl.shells[si]
				for j, enabled := range m.enabled {
					if !enabled {
						continue
					}
					s := int32(m.offset + j)
					sinEl := fl.sinElevation(0, fl.snap.ShellPositions(si)[j])
					if sinEl < fl.sinMask {
						continue
					}
					if !have[s] {
						t.Errorf("terminal (%.6f, %.6f) cell %d at %v: visible satellite %d (sinEl %.6f) missing from candidates",
							lat, lon, cell, at, s, sinEl)
					}
					if sinEl > wantSin {
						want, wantSin = s, sinEl
					}
				}
			}
			if fl.sat[0] != want {
				t.Errorf("terminal (%.6f, %.6f) cell %d at %v: pruned scan kept satellite %d, the all-satellites scan %d",
					lat, lon, cell, at, fl.sat[0], want)
			}
		}
	})
}

// FuzzSinElevationBound is the property every skip rests on: for ANY
// position a terminal stands at and every candidate of its cell, the bound
// stored beside the candidate is at least the exact sinElevation.
func FuzzSinElevationBound(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, lat, lon float64, step uint8, polar bool) {
		fuzzMu.Lock()
		defer fuzzMu.Unlock()
		fl := fuzzProbe(t, lat, lon, polar)
		fl.RunEpoch(int(step%16), sim.Time(int64(step%16)*int64(15*time.Second)))
		checkBounds(t, fl)
	})
}

// checkBounds holds every (terminal, candidate of its cell) pair of the
// fleet's current epoch to bound >= exact value.
func checkBounds(t *testing.T, fl *Fleet) (pairs int) {
	t.Helper()
	for k, c := range fl.popCells {
		list := fl.admit(k, nil)
		for i := int(fl.cellStart[c]); i < int(fl.cellStart[c+1]); i++ {
			for _, e := range list {
				if sinEl := fl.sinElevation(i, fl.satPos[e.id]); e.ub < sinEl {
					t.Errorf("terminal %d (%.6f, %.6f, %.6f) cell %d: satellite %d has sinElevation %.17g above its bound %.17g",
						i, fl.px[i], fl.py[i], fl.pz[i], c, e.id, sinEl, e.ub)
				}
				pairs++
			}
		}
	}
	return pairs
}

// FuzzActivityCoin is TestActivityBracketMatchesCosine on fuzzed input:
// for any local hour in [0, 24] and any draw in [0, 1), the bracket's
// decision is draw < activeProb(h), and so is the one at activeProb(h)
// and its float neighbours.
func FuzzActivityCoin(f *testing.F) {
	f.Add(0.0, 0.3)
	f.Add(24.0, 0.75)
	f.Add(8.0, 0.3)
	f.Add(20.0, 0.75)
	f.Add(7.9921875, 0.30001)
	f.Add(19.9921875, 0.74999)
	f.Add(18.0, 0.5)
	f.Add(math.Nextafter(24.0/activeBins, 0), 0.6)
	f.Fuzz(func(t *testing.T, h, draw float64) {
		if !(h >= 0 && h <= 24) || !(draw >= 0 && draw < 1) {
			t.Skip()
		}
		if got, want := activeAt(h, draw), draw < activeProb(h); got != want {
			t.Fatalf("activeAt(%v, %v) = %v; activeProb(%v) = %v says %v", h, draw, got, h, activeProb(h), want)
		}
		checkActivityCoin(t, h)
	})
}
