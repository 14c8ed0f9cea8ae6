package fleet

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
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
	bestRange := 0.0
	for i, e := range f.gwEcef {
		d := geo.ECEF{X: sp.X - e.X, Y: sp.Y - e.Y, Z: sp.Z - e.Z}
		dn := math.Sqrt(d.X*d.X + d.Y*d.Y + d.Z*d.Z)
		if d.X*e.X+d.Y*e.Y+d.Z*e.Z < f.gwSinMask[i]*dn*f.gwNorm[i] {
			continue
		}
		if f.gw[t] < 0 || dn < bestRange {
			f.gw[t], bestRange = int32(i), dn
		}
	}
	if f.gw[t] < 0 {
		return
	}
	dx, dy, dz := sp.X-f.px[t], sp.Y-f.py[t], sp.Z-f.pz[t]
	up := math.Sqrt(dx*dx + dy*dy + dz*dz)
	e := f.gwEcef[f.gw[t]]
	dx, dy, dz = sp.X-e.X, sp.Y-e.Y, sp.Z-e.Z
	down := math.Sqrt(dx*dx + dy*dy + dz*dz)
	f.delayNs[t] = int64(geo.RadioDelay(up + down))
}

// referenceObserveEpoch is the epoch-pass oracle: it accounts every
// terminal straight into the campaign accumulators, one observation at a
// time, with no scratch and no merge. Worker invariance alone could not
// see a bug in mergeScratch — every worker count goes through it — so
// TestRunReferenceEquivalence holds observeEpoch to this.
func (f *Fleet) referenceObserveEpoch(e int, at sim.Time) {
	utcHours := at.Seconds() / 3600
	var satList, satCnt []int32
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
			f.active[t] = activeDraw(f.seed[t], int64(e)) < activeProb(h)
			if !f.active[t] || f.sat[t] < 0 || f.delayNs[t] < 0 {
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
			rttNs := 2 * f.delayNs[t]
			a.samples++
			a.cSamples.Inc()
			a.latency.Observe(float64(rttNs) / 1e6)
			a.hLatencyNs.Observe(rttNs)
			if e > 0 && f.prevSat[t] >= 0 && f.sat[t] != f.prevSat[t] {
				a.handovers++
				a.cHandover.Inc()
				f.epochHo[f.region[t]]++
			}
			if f.active[t] {
				share := f.cfg.MaxTermMbps
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
	copy(f.prevSat, f.sat)
}

// checkReassignMatchesReference steps a cell-indexed fleet and an oracle
// fleet of the same config through 16 epochs and demands bit-identical
// serving satellites, gateways and delays after each. prep, if non-nil, is
// applied to both fleets before the first epoch. It returns the
// cell-indexed fleet in its final epoch for case-specific checks.
func checkReassignMatchesReference(t *testing.T, name string, cfg Config, prep func(*Fleet)) *Fleet {
	t.Helper()
	fast := New(cfg)
	ref := New(cfg)
	defer fast.Close()
	if prep != nil {
		prep(fast)
		prep(ref)
	}
	for e := 0; e < 16; e++ {
		at := sim.Time(int64(e) * int64(cfg.Epoch))
		fast.ReassignAt(at)
		ref.referenceReassignAt(at)
		if !reflect.DeepEqual(fast.sat, ref.sat) {
			t.Fatalf("%s epoch %d: serving sats diverge", name, e)
		}
		if !reflect.DeepEqual(fast.gw, ref.gw) {
			t.Fatalf("%s epoch %d: gateways diverge", name, e)
		}
		if !reflect.DeepEqual(fast.delayNs, ref.delayNs) {
			t.Fatalf("%s epoch %d: delays diverge", name, e)
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

// runWithSink runs a full campaign with observability attached and
// returns the result plus canonical metric/trace exports.
func runWithSink(cfg Config) (*Result, []byte, []byte) {
	sink := obs.NewSink(0)
	cfg.Obs = sink
	res := Run(cfg)
	metrics, trace := exportSink(sink)
	return res, metrics, trace
}

// runReferenceWithSink is runWithSink with every epoch done by the two
// oracles: the all-satellites reassignment scan and the direct accounting
// pass (single worker, like the oracles themselves).
func runReferenceWithSink(cfg Config) (*Result, []byte, []byte) {
	sink := obs.NewSink(0)
	cfg.Obs = sink
	f := New(cfg)
	epochs := int(f.cfg.Horizon / f.cfg.Epoch)
	for e := 0; e < epochs; e++ {
		at := sim.Time(int64(e) * int64(f.cfg.Epoch))
		f.referenceReassignAt(at)
		f.referenceObserveEpoch(e, at)
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
	base := Config{Seed: 9, Terminals: 3000, Workers: 1}
	fleets := []*Fleet{New(base)}
	for _, w := range []int{2, 8} {
		cfg := base
		cfg.Workers = w
		fleets = append(fleets, New(cfg))
	}
	for e := 0; e < 6; e++ {
		at := sim.Time(int64(e) * int64(15*time.Second))
		for _, fl := range fleets {
			fl.ReassignAt(at)
		}
		for i, fl := range fleets[1:] {
			if !reflect.DeepEqual(fleets[0].sat, fl.sat) || !reflect.DeepEqual(fleets[0].delayNs, fl.delayNs) {
				t.Fatalf("epoch %d: worker variant %d diverges from single-worker", e, i)
			}
		}
	}
}
