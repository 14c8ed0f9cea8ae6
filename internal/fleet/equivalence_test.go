package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// miniShell is a reduced Walker shell for tests that run the O(N×M)
// reference scan many times: same altitude and inclination class as Gen1,
// 288 slots instead of 1584.
func miniShell() leo.ShellConfig {
	return leo.ShellConfig{
		Name:           "mini",
		AltKm:          550,
		InclinationDeg: 53,
		Planes:         24,
		SatsPerPlane:   12,
		PhasingF:       5,
	}
}

// bandClusters returns a cluster set confined to one latitude band, so
// the equivalence suite exercises equatorial cells (widest), mid-latitude
// cells (the population bulk) and the coverage edge (where pruning
// windows degenerate).
func bandClusters(band string) []Cluster {
	switch band {
	case "equatorial":
		return []Cluster{
			{"singapore", "asia", geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}, 80, 5},
			{"bogota", "south-america", geo.LatLon{LatDeg: 4.71, LonDeg: -74.07}, 100, 4},
			{"nairobi", "africa", geo.LatLon{LatDeg: -1.29, LonDeg: 36.82}, 100, 4},
		}
	case "mid":
		return []Cluster{
			{"brussels", "europe", geo.LatLon{LatDeg: 50.85, LonDeg: 4.35}, 100, 5},
			{"seattle", "north-america", geo.LatLon{LatDeg: 47.61, LonDeg: -122.33}, 100, 4},
			{"sydney", "oceania", geo.LatLon{LatDeg: -33.87, LonDeg: 151.21}, 120, 6},
		}
	case "high":
		return []Cluster{
			{"tromso", "high-north", geo.LatLon{LatDeg: 69.65, LonDeg: 18.96}, 60, 1},
			{"fairbanks", "high-north", geo.LatLon{LatDeg: 64.84, LonDeg: -147.72}, 80, 1},
			{"punta-arenas", "south-america", geo.LatLon{LatDeg: -53.16, LonDeg: -70.91}, 80, 2},
		}
	}
	panic("unknown band " + band)
}

func equivConfig(seed uint64, band string) Config {
	return Config{
		Seed:      seed,
		Terminals: 800,
		Horizon:   5 * time.Minute,
		Epoch:     15 * time.Second,
		Clusters:  bandClusters(band),
		Shells:    []leo.ShellConfig{miniShell()},
	}
}

// popOrdinal returns the index in popCells of terminal t's cell.
func (f *Fleet) popOrdinal(t int) int {
	return sort.Search(len(f.popCells), func(k int) bool { return f.cellStart[f.popCells[k]+1] > int32(t) })
}

// candidatesOf returns the candidate list of terminal t's cell for the
// epoch prepare last filled, built by the walk's own admission.
func (f *Fleet) candidatesOf(t int) []cand {
	return f.admit(f.popOrdinal(t), nil)
}

// listed reports whether satellite s is on the candidate list.
func listed(list []cand, s int32) bool {
	return slices.ContainsFunc(list, func(c cand) bool { return c.id == s })
}

// sinElevation is site.sinElevation for terminal t: the formula the walk
// compares, for the oracle and the property tests.
func (f *Fleet) sinElevation(t int, sp geo.ECEF) float64 {
	o := f.site(t)
	return o.sinElevation(sp)
}

// referenceReassignAt is the reassignment oracle: the naive
// O(terminals × constellation) scan. Every terminal tests every enabled
// satellite, ascending in flat id, with the same sinElevation comparison as
// the cell-indexed path, and finishes with its own per-terminal gateway
// scan and down leg (referenceFinish) — it neither fills nor reads the
// per-satellite table.
func (f *Fleet) referenceReassignAt(at sim.Time) {
	f.con.FillSnapshot(&f.snap, at)
	for t := range f.sat {
		best := int32(-1)
		bestSin := -2.0
		for si := range f.shells {
			m := &f.shells[si]
			pos := f.snap.ShellPositions(si)
			for j, en := range m.enabled {
				if !en {
					continue
				}
				sinEl := f.sinElevation(t, pos[j])
				if sinEl < f.sinMask || sinEl <= bestSin {
					continue
				}
				best, bestSin = int32(m.offset+j), sinEl
			}
		}
		f.referenceFinish(t, best)
	}
}

// referenceSatPos resolves a flat satellite id against the snapshot by walking the
// shells, as the oracle's finish did before there was a flat table.
func referenceSatPos(f *Fleet, s int32) geo.ECEF {
	for si := len(f.shells) - 1; si >= 0; si-- {
		if m := &f.shells[si]; int(s) >= m.offset {
			return f.snap.ShellPositions(si)[int(s)-m.offset]
		}
	}
	return geo.ECEF{}
}

// referenceFinish is the per-terminal finish the table replaced, kept as
// the oracle's own code: scan every gateway for the one with the shortest
// slant range that sees the satellite above its mask (first wins ties),
// then sum the up leg and a freshly computed down leg.
func (f *Fleet) referenceFinish(t int, best int32) {
	f.sat[t], f.gw[t], f.delayNs[t] = best, -1, -1
	if best < 0 {
		return
	}
	sp := referenceSatPos(f, best)
	sinMask := math.Sin(geo.Radians(leo.GatewayMaskDeg))
	bestRange := 0.0
	for i, g := range f.gws {
		e := g.ECEF
		d := geo.ECEF{X: sp.X - e.X, Y: sp.Y - e.Y, Z: sp.Z - e.Z}
		dn := math.Sqrt(d.X*d.X + d.Y*d.Y + d.Z*d.Z)
		if d.X*e.X+d.Y*e.Y+d.Z*e.Z < sinMask*dn*g.Norm {
			continue
		}
		if f.gw[t] < 0 || dn < bestRange {
			f.gw[t], bestRange = int16(i), dn
		}
	}
	if f.gw[t] < 0 {
		return
	}
	dx, dy, dz := sp.X-f.px[t], sp.Y-f.py[t], sp.Z-f.pz[t]
	up := math.Sqrt(dx*dx + dy*dy + dz*dz)
	e := f.gws[f.gw[t]].ECEF
	dx, dy, dz = sp.X-e.X, sp.Y-e.Y, sp.Z-e.Z
	down := math.Sqrt(dx*dx + dy*dy + dz*dz)
	f.delayNs[t] = int32(geo.RadioDelay(up + down))
}

// referenceObserveEpoch is the epoch-pass oracle: it accounts every
// terminal straight into the campaign accumulators, one observation at a
// time, with no scratch and no merge. Worker invariance alone could not
// see a bug in mergeScratch — every worker count goes through it — so
// TestRunReferenceEquivalence holds RunEpoch's accounting to this. prev is
// every terminal's satellite entering the epoch.
func (f *Fleet) referenceObserveEpoch(e int, at sim.Time, prev []int32) {
	utcHours := at.Seconds() / 3600
	var satList, satCnt []int32
	active := make([]bool, len(f.sat))
	for ri := range f.epochOut {
		f.epochOut[ri] = 0
		f.epochHo[ri] = 0
	}
	for c := 0; c < f.grid.nCells; c++ {
		lo, hi := int(f.cellStart[c]), int(f.cellStart[c+1])
		if lo == hi {
			continue
		}
		// Pass 1: per distinct serving satellite, count active served
		// terminals sharing its beam over this cell.
		satList = satList[:0]
		satCnt = satCnt[:0]
		for t := lo; t < hi; t++ {
			h := localHour(utcHours, f.lon[t])
			active[t] = activeDraw(f.seed[t], int64(e)) < activeProb(h)
			if !active[t] || f.sat[t] < 0 || f.delayNs[t] < 0 {
				continue
			}
			found := false
			for k, s := range satList {
				if s == f.sat[t] {
					satCnt[k]++
					found = true
					break
				}
			}
			if !found {
				satList = append(satList, f.sat[t])
				satCnt = append(satCnt, 1)
			}
		}
		// Pass 2: account every terminal of the cell.
		for t := lo; t < hi; t++ {
			a := &f.acc[f.region[t]]
			if f.delayNs[t] < 0 {
				a.outages++
				a.cOutage.Inc()
				f.epochOut[f.region[t]]++
				continue
			}
			rttNs := 2 * int64(f.delayNs[t])
			a.samples++
			a.cSamples.Inc()
			a.latency.Observe(float64(rttNs) / 1e6)
			a.hLatencyNs.Observe(rttNs)
			if e > 0 && prev[t] >= 0 && f.sat[t] != prev[t] {
				a.handovers++
				a.cHandover.Inc()
				f.epochHo[f.region[t]]++
			}
			if active[t] {
				share := maxTermMbps
				for k, s := range satList {
					if s == f.sat[t] {
						if per := f.cfg.BeamMbps / float64(satCnt[k]); per < share {
							share = per
						}
						break
					}
				}
				h := localHour(utcHours, f.lon[t])
				if h >= 18 && h < 23 {
					a.peak.Observe(share)
				} else {
					a.offPeak.Observe(share)
				}
				a.hTputKbps.Observe(int64(share * 1000))
			}
		}
	}
	if f.cfg.Obs != nil {
		tr := f.cfg.Obs.Tracer()
		for ri := range f.acc {
			tr.Emit(at, obs.KindFleetEpoch, f.acc[ri].subj, f.epochOut[ri], f.epochHo[ri])
		}
	}
}

// checkReassignMatchesReference steps a cell-indexed fleet and an oracle
// fleet of the same config through 16 consecutive epochs and demands
// bit-identical serving satellites, gateways and delays after each. prep, if
// non-nil, is applied to both fleets before the first epoch. It returns the
// cell-indexed fleet in its final epoch for case-specific checks.
func checkReassignMatchesReference(t *testing.T, name string, cfg Config, prep func(*Fleet)) *Fleet {
	t.Helper()
	instants := make([]sim.Time, 16)
	for e := range instants {
		instants[e] = sim.Time(int64(e) * int64(cfg.withDefaults().Epoch))
	}
	return checkReassignAt(t, name, cfg, prep, instants, nil)
}

// checkReassignAt is checkReassignMatchesReference over any sequence of
// instants — repeated, out of order, far apart. The oracle has no memory, so
// it also holds the pruned scan to forgetting where it started: each
// terminal's previous satellite may only decide how much is scored. before,
// if non-nil, sees the cell-indexed fleet ahead of every RunEpoch with the
// snapshot and candidate index of the instant about to be assigned.
func checkReassignAt(t *testing.T, name string, cfg Config, prep func(*Fleet), instants []sim.Time, before func(step int, fast *Fleet)) *Fleet {
	t.Helper()
	fast := New(cfg)
	ref := New(cfg)
	t.Cleanup(fast.Close)
	if prep != nil {
		prep(fast)
		prep(ref)
	}
	for i, at := range instants {
		if before != nil {
			fast.prepare(at)
			before(i, fast)
		}
		fast.RunEpoch(i, at)
		ref.referenceReassignAt(at)
		if !reflect.DeepEqual(fast.sat, ref.sat) {
			t.Fatalf("%s step %d (%v): serving sats diverge", name, i, at)
		}
		if !reflect.DeepEqual(fast.gw, ref.gw) {
			t.Fatalf("%s step %d (%v): gateways diverge", name, i, at)
		}
		if !reflect.DeepEqual(fast.delayNs, ref.delayNs) {
			t.Fatalf("%s step %d (%v): delays diverge", name, i, at)
		}
	}
	return fast
}

// TestCellIndexMatchesReference is the core equivalence suite: for every
// (seed, latitude band, worker count) case, the cell-indexed reassignment
// reading the per-satellite gateway table must produce bit-identical
// serving satellites, gateways and delays to the naive all-satellites scan
// with its per-terminal gateway finish, epoch by epoch.
func TestCellIndexMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, band := range []string{"equatorial", "mid", "high"} {
			for _, workers := range []int{1, 4} {
				cfg := equivConfig(seed, band)
				cfg.Workers = workers
				checkReassignMatchesReference(t, fmt.Sprintf("seed %d band %s workers %d", seed, band, workers), cfg, nil)
			}
		}
	}
}

// TestGatewayTableEdgeCases covers what the world configs above never
// reach: a serving satellite no gateway sees (the table holds -1, the
// terminal is in outage although a satellite is overhead), disabled
// satellite slots (never candidates, their table entries never read), and a
// second shell (flat ids past the first shell's offset).
func TestGatewayTableEdgeCases(t *testing.T) {
	// Only Sydney has a ground station: Brussels and Seattle dishes see
	// satellites that reach no gateway.
	cfg := equivConfig(5, "mid")
	cfg.Gateways = []leo.Gateway{{Name: "sydney-gw", Pos: geo.LatLon{LatDeg: -33.94, LonDeg: 150.94}}}
	f := checkReassignMatchesReference(t, "one gateway", cfg, nil)
	var noGw, served int
	for i := range f.sat {
		if f.sat[i] >= 0 && f.gw[i] < 0 {
			noGw++
			if f.delayNs[i] != -1 {
				t.Fatalf("terminal %d: satellite %d reaches no gateway but delay is %d", i, f.sat[i], f.delayNs[i])
			}
		}
		if f.gw[i] >= 0 {
			served++
		}
	}
	if noGw == 0 || served == 0 {
		t.Fatalf("one-gateway case has %d satellite-without-gateway outages and %d served terminals; want both", noGw, served)
	}

	// Every third slot of the shell is empty.
	cfg = equivConfig(5, "mid")
	f = checkReassignMatchesReference(t, "disabled slots", cfg, func(f *Fleet) {
		for j := range f.shells[0].enabled {
			f.shells[0].enabled[j] = j%3 != 0
		}
	})
	for i, s := range f.sat {
		if s >= 0 && s%3 == 0 {
			t.Fatalf("terminal %d is served by disabled slot %d", i, s)
		}
	}

	// Two shells: the higher one wins some terminals, so flat ids beyond
	// the first shell's range are assigned and resolved.
	cfg = equivConfig(5, "mid")
	upper := miniShell()
	upper.Name, upper.AltKm, upper.InclinationDeg = "upper", 1100, 70
	cfg.Shells = append(cfg.Shells, upper)
	f = checkReassignMatchesReference(t, "two shells", cfg, nil)
	second := 0
	for _, s := range f.sat {
		if int(s) >= f.shells[1].offset {
			second++
		}
	}
	if second == 0 {
		t.Fatal("two-shell case never assigned a satellite of the second shell")
	}
}

// nearPolarShell reaches the poles, which Gen1's 53° never does.
func nearPolarShell() leo.ShellConfig {
	return leo.ShellConfig{Name: "near-polar", AltKm: 560, InclinationDeg: 86, Planes: 20, SatsPerPlane: 10, PhasingF: 3}
}

// twoAltitudeShells is a dense low shell under a sparse high one, so that
// each serves some terminals: one bound formula, two satellite radii, and a
// coverage angle per shell.
func twoAltitudeShells() []leo.ShellConfig {
	low, high := miniShell(), miniShell()
	low.Name, low.AltKm = "low", 340
	high.Name, high.AltKm, high.InclinationDeg = "high", 1150, 70
	high.Planes, high.SatsPerPlane, high.PhasingF = 8, 6, 1
	return []leo.ShellConfig{low, high}
}

// Clusters the world population never produces: one on the polar cell ring
// (the all-or-nothing admission window, central angles near zero where the
// bound saturates at 1) and one over the antimeridian (its terminals fill
// the first and last cell of their rows, and admission windows wrap).
var (
	poleCluster     = []Cluster{{"pole", "high-north", geo.LatLon{LatDeg: 89.2, LonDeg: 30}, 150, 1}}
	datelineCluster = []Cluster{{"dateline", "oceania", geo.LatLon{LatDeg: -17, LonDeg: 179.95}, 150, 1}}
)

// TestPrunedScanEdgeCases holds the bound-pruned scan to the all-satellites
// oracle where the bound is tightest or degenerate.
func TestPrunedScanEdgeCases(t *testing.T) {
	served := func(f *Fleet) (n int) {
		for _, s := range f.sat {
			if s >= 0 {
				n++
			}
		}
		return n
	}
	for _, workers := range []int{1, 4} {
		cfg := equivConfig(5, "high")
		cfg.Workers = workers
		cfg.Shells = []leo.ShellConfig{nearPolarShell()}
		cfg.Clusters = poleCluster
		f := checkReassignMatchesReference(t, "polar row", cfg, nil)
		top := f.grid.rows[len(f.grid.rows)-1]
		if below := f.cellStart[top.start]; below != 0 {
			t.Fatalf("polar row: %d terminals in cells below the top row", below)
		}
		if served(f) == 0 {
			t.Fatal("polar row: no terminal served under a near-polar shell")
		}

		cfg = equivConfig(5, "mid")
		cfg.Workers = workers
		cfg.Clusters = datelineCluster
		f = checkReassignMatchesReference(t, "antimeridian", cfg, nil)
		var east, west int
		for _, lon := range f.lon {
			if lon > 0 {
				east++
			} else {
				west++
			}
		}
		if east == 0 || west == 0 || served(f) == 0 {
			t.Fatalf("antimeridian: %d terminals east, %d west, %d served; want all non-zero", east, west, served(f))
		}

		// 75° N under a 53° shell: candidate lists may be non-empty (the
		// window is one-sided) but nothing clears the mask, ever.
		cfg = equivConfig(5, "high")
		cfg.Workers = workers
		cfg.Clusters = []Cluster{{"svalbard", "high-north", geo.LatLon{LatDeg: 75, LonDeg: 20}, 60, 1}}
		f = checkReassignMatchesReference(t, "no satellite", cfg, nil)
		if n := served(f); n != 0 {
			t.Fatalf("no satellite: %d terminals at 75° N served by a 53° shell", n)
		}

		cfg = equivConfig(5, "mid")
		cfg.Workers = workers
		cfg.Shells = twoAltitudeShells()
		f = checkReassignMatchesReference(t, "two altitudes", cfg, nil)
		var perShell [2]int
		for _, s := range f.sat {
			if s >= 0 {
				perShell[s/int32(f.shells[1].offset)]++
			}
		}
		if perShell[0] == 0 || perShell[1] == 0 {
			t.Fatalf("two altitudes: shells serve %v terminals; want both in use", perShell)
		}

		// A mask at the horizon and one below it (sinMask <= 0): the search
		// starts from a non-positive value to beat. MaskDeg 0 itself selects
		// the default, so the horizon case is the smallest mask above it.
		for _, mask := range []float64{1e-9, -5} {
			cfg = equivConfig(5, "mid")
			cfg.Workers = workers
			cfg.MaskDeg = mask
			f = checkReassignMatchesReference(t, fmt.Sprintf("mask %g", mask), cfg, nil)
			if mask < 0 && f.sinMask >= 0 {
				t.Fatalf("mask %g: sinMask %g is not negative", mask, f.sinMask)
			}
			if served(f) != len(f.sat) {
				t.Fatalf("mask %g: %d of %d mid-latitude terminals served", mask, served(f), len(f.sat))
			}
		}
	}
}

// TestPrunedScanSeedCases walks the instants that decide what the seed is:
// the first epoch (no previous satellite), the same instant twice (the seed
// is the winner), consecutive epochs, and jumps of ten minutes and back, far
// enough that the previous satellite has set below the mask or left the
// cell's candidate list altogether. Each kind of stale seed must have
// occurred, or the case proved nothing.
func TestPrunedScanSeedCases(t *testing.T) {
	sec := func(s int64) sim.Time { return sim.Time(s * int64(time.Second)) }
	instants := []sim.Time{sec(0), sec(0), sec(15), sec(30), sec(30), sec(630), sec(645), sec(45), sec(3600), sec(3600), sec(0)}
	for _, workers := range []int{1, 4} {
		cfg := equivConfig(13, "mid")
		cfg.Workers = workers
		var fresh, belowMask, unlisted int
		checkReassignAt(t, fmt.Sprintf("seed cases workers %d", workers), cfg, nil, instants, func(_ int, f *Fleet) {
			for i, prev := range f.sat {
				if prev < 0 {
					fresh++
					continue
				}
				if !listed(f.candidatesOf(i), prev) {
					unlisted++
				}
				if f.sinElevation(i, f.satPos[prev]) < f.sinMask {
					belowMask++
				}
			}
		})
		if fresh == 0 || belowMask == 0 || unlisted == 0 {
			t.Fatalf("workers %d: %d fresh, %d below-mask and %d unlisted seeds; want all non-zero",
				workers, fresh, belowMask, unlisted)
		}
	}
}

// TestPrunedScanTieRule makes every decision a tie: two copies of one shell
// put two satellites at each position, and every terminal is seeded with the
// higher-numbered twin of the satellite it held. An ascending scan keeps the
// lower twin; the seeded scan reaches the same only by its explicit rule.
func TestPrunedScanTieRule(t *testing.T) {
	cfg := equivConfig(21, "mid")
	cfg.Shells = []leo.ShellConfig{miniShell(), miniShell()}
	swapped := 0
	f := checkReassignAt(t, "twin shells", cfg, nil, []sim.Time{0, 0, sim.Time(15 * time.Second), sim.Time(30 * time.Second)},
		func(_ int, f *Fleet) {
			twin := int32(f.shells[1].offset)
			for i, s := range f.sat {
				if s >= 0 && s < twin {
					f.sat[i] = s + twin
					swapped++
				}
			}
		})
	if swapped == 0 {
		t.Fatal("no terminal was seeded with a twin")
	}
	for i, s := range f.sat {
		if s >= int32(f.shells[1].offset) {
			t.Fatalf("terminal %d kept twin %d of the second shell", i, s)
		}
	}
}

// TestAssignOrderIndependent: the winner is the maximum of (sinElevation
// descending, id ascending) over a cell's candidates at or above the mask,
// which no order of the list changes. On twin shells every satellite has a
// twin at the same position, so every decision is an exact sinElevation
// and bound tie. Each terminal's list is shuffled with its bounds, put
// best bound first again (sortCands) and scanned with no seed, seeded with
// the winner, with the winner's twin and with a random candidate; each
// scan must keep what a scan of the whole list without bounds keeps.
func TestAssignOrderIndependent(t *testing.T) {
	cfg := equivConfig(31, "mid")
	cfg.Shells = []leo.ShellConfig{miniShell(), miniShell()}
	f := New(cfg)
	defer f.Close()
	twin := int32(f.shells[1].offset)
	rng := rand.New(rand.NewPCG(48, 2))
	ties := 0
	for e := 0; e < 4; e++ {
		f.prepare(sim.Time(int64(e) * int64(40*time.Second)))
		for k, c := range f.popCells {
			list := f.admit(k, nil)
			if len(list) == 0 {
				continue
			}
			for i := int(f.cellStart[c]); i < int(f.cellStart[c+1]); i++ {
				o := f.site(i)
				want, wantSin := int32(-1), 0.0
				for _, e := range list {
					sinEl := o.sinElevation(f.satPos[e.id])
					if sinEl >= f.sinMask && (want < 0 || sinEl > wantSin || sinEl == wantSin && e.id < want) {
						want, wantSin = e.id, sinEl
					}
				}
				seeds := []int32{-1, want, list[rng.IntN(len(list))].id}
				if want >= 0 && want < twin {
					if o.sinElevation(f.satPos[want+twin]) != wantSin {
						t.Fatalf("satellite %d and its twin %d differ in sinElevation", want, want+twin)
					}
					seeds = append(seeds, want+twin)
					ties++
				}
				for range 3 {
					rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
					sortCands(list)
					for _, prev := range seeds {
						if got, _ := f.assign(&o, prev, list); got != want {
							t.Fatalf("epoch %d terminal %d seeded with %d: assign kept %d, the whole list %d (list %v)", e, i, prev, got, want, list)
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no tie between twins was decided")
	}
}

// TestSinElevationBound is the bound property on whole fleets: for every
// terminal and every candidate of its cell, over a campaign's epochs, the
// stored bound is at least the exact sinElevation — on the world population
// under Gen1, at the coverage edge, at the pole, across the antimeridian,
// with two altitudes and with a mask below the horizon.
func TestSinElevationBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"world", Config{Seed: 2, Terminals: 3000}},
		{"high", equivConfig(3, "high")},
		{"pole", Config{Seed: 4, Terminals: 300, Shells: []leo.ShellConfig{nearPolarShell()}, Clusters: poleCluster}},
		{"dateline", Config{Seed: 5, Terminals: 300, Clusters: datelineCluster}},
		{"two altitudes", Config{Seed: 6, Terminals: 600, Shells: twoAltitudeShells()}},
		{"mask -5", Config{Seed: 7, Terminals: 600, MaskDeg: -5, Shells: []leo.ShellConfig{miniShell()}}},
	} {
		fl := New(tc.cfg)
		pairs := 0
		for e := 0; e < 12; e++ {
			fl.RunEpoch(e, sim.Time(int64(e)*int64(40*time.Second)))
			pairs += checkBounds(t, fl)
		}
		if pairs == 0 {
			t.Errorf("%s: no (terminal, candidate) pair checked", tc.name)
		}
	}
}

// TestScanStats pins the scan telemetry: the bound never adds work
// (evaluated <= listed), something is pruned, most terminals keep their
// satellite across a 15 s step, the index covers exactly the populated
// cells, the last epoch's entries are its per-cell list lengths summed,
// and every count is the same for any worker count.
func TestScanStats(t *testing.T) {
	var want ScanStats
	for _, workers := range []int{1, 2, 4} {
		fl := New(Config{Seed: 9, Terminals: 9000, Workers: workers})
		for e := 0; e < 8; e++ {
			fl.RunEpoch(e, sim.Time(int64(e)*int64(15*time.Second)))
		}
		st := fl.ScanStats()
		fl.Close()
		if workers == 1 {
			want = st
			populated := 0
			for c := 0; c < fl.grid.nCells; c++ {
				if fl.cellStart[c] != fl.cellStart[c+1] {
					populated++
				}
			}
			entries := 0
			for k := range fl.popCells {
				entries += len(fl.admit(k, nil))
			}
			if len(fl.popCells) != populated || st.Epochs != 8 || st.PopulatedCells != populated || st.CandEntries != entries || entries == 0 {
				t.Fatalf("index counts %+v over %d listed cells; want 8 epochs, %d populated cells, %d entries", st, len(fl.popCells), populated, entries)
			}
			if st.Evaluated > st.Listed || st.BoundPassed > st.Evaluated || st.BoundPassed == 0 {
				t.Fatalf("scan counts %+v; want 0 < passed <= evaluated <= listed", st)
			}
			if st.Evaluated*2 > st.Listed {
				t.Errorf("bound pruned less than half: %d of %d listed candidates evaluated", st.Evaluated, st.Listed)
			}
			if served := st.Epochs * 9000; st.SeedWon*2 < served {
				t.Errorf("seed won %d of %d terminal-epochs; want most", st.SeedWon, served)
			}
			continue
		}
		if st != want {
			t.Errorf("%d workers: scan stats %+v, 1 worker %+v", workers, st, want)
		}
	}
}

// runWithSink runs a full campaign with observability attached and
// returns the result plus canonical metric/trace exports.
func runWithSink(cfg Config) (*Result, []byte, []byte) {
	sink := obs.NewSink()
	cfg.Obs = sink
	res := Run(cfg)
	metrics, trace := exportSink(sink)
	return res, metrics, trace
}

// runReferenceWithSink is runWithSink with every epoch done by the two
// oracles: the all-satellites reassignment scan and the direct accounting
// pass (single worker, like the oracles themselves).
func runReferenceWithSink(cfg Config) (*Result, []byte, []byte) {
	sink := obs.NewSink()
	cfg.Obs = sink
	f := New(cfg)
	epochs := int(f.cfg.Horizon / f.cfg.Epoch)
	for e := 0; e < epochs; e++ {
		at := sim.Time(int64(e) * int64(f.cfg.Epoch))
		prev := slices.Clone(f.sat)
		f.referenceReassignAt(at)
		f.referenceObserveEpoch(e, at, prev)
	}
	metrics, trace := exportSink(sink)
	return f.result(epochs), metrics, trace
}

func exportSink(sink *obs.Sink) (metrics, trace []byte) {
	col := obs.NewCollector()
	col.Add("fleet/0000", sink)
	return col.ExportMetricsJSON(), col.ExportTraceBinary()
}

// TestRunReferenceEquivalence drives two whole campaigns — cell-indexed
// reassignment with scratch-and-merge accounting, and the two oracles —
// through the full pipeline including beam contention and observability,
// and demands identical results and identical exported bytes.
func TestRunReferenceEquivalence(t *testing.T) {
	cfg := equivConfig(3, "mid")
	cfg.Horizon = 4 * time.Minute
	fast, fastMetrics, fastTrace := runWithSink(cfg)
	ref, refMetrics, refTrace := runReferenceWithSink(cfg)
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("results diverge:\nfast: %+v\nref:  %+v", fast, ref)
	}
	if !bytes.Equal(fastMetrics, refMetrics) {
		t.Error("metrics exports differ between cell-indexed and reference campaigns")
	}
	if !bytes.Equal(fastTrace, refTrace) {
		t.Error("trace exports differ between cell-indexed and reference campaigns")
	}
}

// TestRunWorkerInvariance: the same campaign at 1 and 8 workers must
// produce identical results and byte-identical exports — reassignment
// fans out, but every terminal is a pure function of the snapshot.
func TestRunWorkerInvariance(t *testing.T) {
	cfg := equivConfig(11, "mid")
	cfg.Horizon = 4 * time.Minute
	cfg.Workers = 1
	one, oneMetrics, oneTrace := runWithSink(cfg)
	cfg.Workers = 8
	eight, eightMetrics, eightTrace := runWithSink(cfg)
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("results diverge across worker counts:\n1: %+v\n8: %+v", one, eight)
	}
	if !bytes.Equal(oneMetrics, eightMetrics) {
		t.Error("metrics exports differ across worker counts")
	}
	if !bytes.Equal(oneTrace, eightTrace) {
		t.Error("trace exports differ across worker counts")
	}
	// A closed fleet keeps its eight scratches and has no pool: it runs the
	// campaign on the calling goroutine.
	closed := New(cfg)
	closed.Close()
	if res := closed.Run(); !reflect.DeepEqual(res, one) {
		t.Errorf("closed 8-worker fleet diverges from 1 worker:\n got: %+v\nwant: %+v", res, one)
	}
}

// TestEpochCampaignWorkerInvariance is the partitioned epoch campaign's
// proof obligation: full campaigns — results, metrics exports, trace
// exports — must be bit-identical between the pool-less single worker
// (one scratch, observed inline) and the pooled fork/join path (Workers 2
// and 8, per-worker scratch with ordered merge) across
// several seeds and latitude bands, and — outside -short — at 100 000
// terminals on the full Gen1 shell and world population, the scale the
// steal ranges and the 8-ranges-per-worker balance are sized for.
func TestEpochCampaignWorkerInvariance(t *testing.T) {
	type campaign struct {
		name string
		cfg  Config
	}
	var cases []campaign
	for _, tc := range []struct {
		seed uint64
		band string
	}{{3, "mid"}, {17, "equatorial"}, {29, "high"}} {
		cfg := equivConfig(tc.seed, tc.band)
		cfg.Horizon = 4 * time.Minute
		cases = append(cases, campaign{tc.band, cfg})
	}
	if !testing.Short() {
		cases = append(cases, campaign{"world-100k", Config{Seed: 1, Terminals: 100000, Horizon: time.Minute}})
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Workers = 1
		want, wantMetrics, wantTrace := runWithSink(cfg)
		for _, w := range []int{2, 8} {
			cfg.Workers = w
			got, gotMetrics, gotTrace := runWithSink(cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: %d-worker campaign result diverges from 1 worker:\n got: %+v\nwant: %+v",
					tc.name, cfg.Seed, w, got, want)
			}
			if !bytes.Equal(gotMetrics, wantMetrics) {
				t.Errorf("%s seed %d: %d-worker metrics export differs from 1 worker", tc.name, cfg.Seed, w)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("%s seed %d: %d-worker trace export differs from 1 worker", tc.name, cfg.Seed, w)
			}
		}
	}
}

// TestReassignWorkerInvariance checks the assignment arrays directly
// across worker counts, epoch by epoch, on the full Gen1 shell.
func TestReassignWorkerInvariance(t *testing.T) {
	base := Config{Seed: 9, Terminals: 9000, Workers: 1}
	fleets := []*Fleet{New(base)}
	for _, w := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = w
		fleets = append(fleets, New(cfg))
	}
	for e := 0; e < 6; e++ {
		at := sim.Time(int64(e) * int64(15*time.Second))
		for _, fl := range fleets {
			fl.RunEpoch(e, at)
		}
		for i, fl := range fleets[1:] {
			if !reflect.DeepEqual(fleets[0].sat, fl.sat) || !reflect.DeepEqual(fleets[0].delayNs, fl.delayNs) {
				t.Fatalf("epoch %d: worker variant %d diverges from single-worker", e, i)
			}
		}
	}
}
