package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"starlinkperf/internal/obs"
)

// materializeAll is the lazy build's oracle: every terminal gets its node,
// links, route and handler straight after NewTraffic, before any event — the
// eager build this package had before terminals were born on first use.
func (tr *Traffic) materializeAll() {
	for _, pt := range tr.parts {
		for i := range pt.probes {
			materialize(&pt.probes[i])
		}
	}
}

// runLazyOrEager runs c with a collector attached, optionally building every
// terminal up front.
func runLazyOrEager(c TrafficConfig, eager bool) (fidExport, *TrafficResult, *Traffic) {
	col := obs.NewCollector()
	c.Collector = col
	tr := NewTraffic(c)
	if eager {
		tr.materializeAll()
	}
	res := tr.Run()
	return fidExport{col.ExportMetricsJSON(), col.ExportTraceJSONL(), col.ExportTraceBinary()}, res, tr
}

// TestTrafficLazyMatchesEager holds terminals born on their first emulated
// probe to terminals that existed from the start: equal results, byte-equal
// metrics and both trace encodings, and at the horizon every access link's
// counters and FIFO clamp state equal — compared link against link for
// terminals the lazy run built, and the ref's account against the eager
// link for terminals it never built.
func TestTrafficLazyMatchesEager(t *testing.T) {
	var cases []TrafficConfig
	for _, seed := range []uint64{1, 42, 20260808} {
		c := testTrafficConfig(seed)
		c.Partitions = 4
		cases = append(cases, c)
	}
	cases = append(cases, TrafficConfig{
		Fleet:      Config{Seed: 11, Terminals: 200, Horizon: 3 * time.Second, Epoch: time.Second},
		Interval:   20 * time.Millisecond,
		Partitions: 4,
	})
	var bornLate, neverBorn int
	for _, c := range cases {
		lazy, lazyRes, lazyTr := runLazyOrEager(c, false)
		eager, eagerRes, eagerTr := runLazyOrEager(c, true)
		name := c.Fleet.Seed
		if !reflect.DeepEqual(scrub(lazyRes), scrub(eagerRes)) || lazyRes.Events != eagerRes.Events {
			t.Errorf("seed %d: lazy result diverges from eager\n got: %+v\nwant: %+v", name, lazyRes, eagerRes)
		}
		if !bytes.Equal(lazy.metrics, eager.metrics) {
			t.Errorf("seed %d: metrics export differs between lazy and eager terminals", name)
		}
		if !bytes.Equal(lazy.jsonl, eager.jsonl) {
			t.Errorf("seed %d: JSONL trace differs between lazy and eager terminals", name)
		}
		if !bytes.Equal(lazy.binary, eager.binary) {
			t.Errorf("seed %d: binary trace differs between lazy and eager terminals", name)
		}
		if lazyTr.FastForwarded() != eagerTr.FastForwarded() || lazyTr.EventsSkipped() != eagerTr.EventsSkipped() {
			t.Errorf("seed %d: lazy absorbed %d probes / skipped %d events, eager %d / %d", name,
				lazyTr.FastForwarded(), lazyTr.EventsSkipped(), eagerTr.FastForwarded(), eagerTr.EventsSkipped())
		}
		lf, ef := lazyTr.FastForwardStats(), eagerTr.FastForwardStats()
		if ef.Materialized != int64(lazyRes.Terminals) {
			t.Fatalf("seed %d: eager run built %d of %d terminals", name, ef.Materialized, lazyRes.Terminals)
		}
		ef.Materialized = lf.Materialized
		if lf != ef {
			t.Errorf("seed %d: fallback causes differ: lazy %+v, eager %+v", name, lf, ef)
		}
		for p, pt := range lazyTr.parts {
			for i := range pt.probes {
				l, e := &pt.probes[i], &eagerTr.parts[p].probes[i]
				if l.node == nil {
					neverBorn++
					want := e.up.Stats()
					if l.credited != want.Sent || l.credited != want.Delivered || e.down.Stats() != want ||
						l.upArr != e.up.LastArrival() || l.downArr != e.down.LastArrival() {
						t.Fatalf("seed %d terminal %d: account {%d, %d, %d}, eager links up %+v@%d down %+v@%d", name, l.term,
							l.credited, l.upArr, l.downArr, want, e.up.LastArrival(), e.down.Stats(), e.down.LastArrival())
					}
					continue
				}
				if l.credited > 0 {
					bornLate++
				}
				if l.up.Stats() != e.up.Stats() || l.down.Stats() != e.down.Stats() ||
					l.up.LastArrival() != e.up.LastArrival() || l.down.LastArrival() != e.down.LastArrival() {
					t.Fatalf("seed %d terminal %d (born with %d credited): up %+v@%d down %+v@%d, eager up %+v@%d down %+v@%d",
						name, l.term, l.credited, l.up.Stats(), l.up.LastArrival(), l.down.Stats(), l.down.LastArrival(),
						e.up.Stats(), e.up.LastArrival(), e.down.Stats(), e.down.LastArrival())
				}
			}
		}
	}
	// The cases must reach both sides of the hand-over: links that adopted a
	// non-empty account, and accounts that never became links.
	if bornLate == 0 || neverBorn == 0 {
		t.Fatalf("%d terminals born with credit, %d never born; want both", bornLate, neverBorn)
	}
}

// TestAllocGateTrafficBuild holds the scenario build to the lazy design: at
// 5 000 terminals NewTraffic stays under three heap objects per terminal
// (the eager build made fourteen), Run under one, and fewer than 5 % of the
// terminals are ever built.
func TestAllocGateTrafficBuild(t *testing.T) {
	const terminals = 5000
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	m0 := mallocs()
	tr := NewTraffic(TrafficConfig{
		Fleet: Config{Seed: 1, Terminals: terminals, Horizon: time.Minute, Epoch: 15 * time.Second},
	})
	m1 := mallocs()
	res := tr.Run()
	m2 := mallocs()
	if res.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	if per := float64(m1-m0) / terminals; per >= 3 {
		t.Errorf("NewTraffic: %.2f objects per terminal, want < 3", per)
	}
	if per := float64(m2-m1) / terminals; per >= 1 {
		t.Errorf("Run: %.2f objects per terminal, want < 1", per)
	}
	if built := tr.FastForwardStats().Materialized; built*20 >= terminals {
		t.Errorf("%d of %d terminals materialised, want < 5 %%", built, terminals)
	}
	t.Logf("NewTraffic %.2f, Run %.2f objects per terminal; fallbacks %+v", float64(m1-m0)/terminals, float64(m2-m1)/terminals, tr.FastForwardStats())
}
