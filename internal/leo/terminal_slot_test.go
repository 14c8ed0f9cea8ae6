package leo

import (
	"testing"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// slotRefDelay recomputes the bent-pipe delay from scratch through the
// reference assignment path, bypassing both the assignment memo and the
// delay memo.
func slotRefDelay(term *Terminal, at sim.Time) (time.Duration, bool) {
	a := term.referenceAssignmentAt(at)
	if !a.OK {
		return -1, false
	}
	satPos := term.con.Position(a.Sat, at)
	up := term.posECEF.Distance(satPos)
	down := satPos.Distance(term.gwGeom[a.Gateway].ecef)
	return geo.RadioDelay(up + down), true
}

// TestDelaySlotOutOfOrderEpochs is the regression test for the DelayAt
// memo under more distinct time quanta than its one slot. Interleaved,
// out-of-order queries across 12 distinct quanta must never surface a
// stale entry: every answer has to match a from-scratch reference
// computation, a replaced quantum must recompute (visible as a cache
// miss), and a back-to-back repeat must hit.
func TestDelaySlotOutOfOrderEpochs(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	term := NewTerminal(DefaultTerminalConfig(louvain), con, testGateways())
	reg := obs.NewRegistry()
	term.Observe(reg)

	quantum := term.delayQuantumNS
	if quantum != int64(100*time.Millisecond) {
		t.Fatalf("delay quantum = %d ns, expected 100 ms", quantum)
	}
	// 12 distinct quanta visited out of order with repeats, so the slot is
	// replaced and every quantum revisited at least once.
	order := []int{0, 5, 3, 0, 7, 2, 9, 5, 11, 1, 8, 3, 10, 4, 6, 0, 11, 2, 7, 9, 1, 10}
	distinct := map[int]bool{}
	for _, q := range order {
		distinct[q] = true
		// Offset inside the quantum: DelayAt must key on the quantum, not
		// the raw instant.
		at := sim.Time(int64(q)*quantum + quantum/3)
		got, ok := term.DelayAt(at)
		want, wok := slotRefDelay(term, at)
		if ok != wok {
			t.Fatalf("quantum %d: DelayAt ok=%v, reference ok=%v", q, ok, wok)
		}
		if ok && got != want {
			t.Fatalf("quantum %d: DelayAt = %v, reference = %v (stale slot?)", q, got, want)
		}
	}

	snap := reg.Snapshot()
	hits := snap["leo.delay.cache_hit"]
	misses := snap["leo.delay.cache_miss"]
	if int(hits+misses) != len(order) {
		t.Errorf("hits (%v) + misses (%v) != %d queries", hits, misses, len(order))
	}
	// Every distinct quantum misses at least once, and the out-of-order
	// revisits after replacement force additional misses beyond that.
	if int(misses) < len(distinct) {
		t.Errorf("%v misses for %d distinct quanta, want at least one each", misses, len(distinct))
	}
	if int(misses) == len(distinct) {
		t.Errorf("exactly %d misses: no recompute of a replaced quantum observed across %d out-of-order queries", len(distinct), len(order))
	}

	// A back-to-back repeat is a hit.
	at := sim.Time(9*quantum + quantum/2)
	term.DelayAt(at)
	before := reg.Snapshot()["leo.delay.cache_hit"]
	term.DelayAt(at)
	if after := reg.Snapshot()["leo.delay.cache_hit"]; after != before+1 {
		t.Errorf("immediate repeat query was not a cache hit (hits %v -> %v)", before, after)
	}
}
