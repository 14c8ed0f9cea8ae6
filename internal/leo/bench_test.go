package leo

import (
	"testing"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// The naive/fast benchmark pair quantifies the geometry fast path; both
// are kept in-tree so the speedup in DESIGN.md stays reproducible. Each
// iteration computes one fresh epoch assignment by calling
// computeAssignment below the one-slot memo, at an epoch that varies per
// iteration.

func benchTerminal() *Terminal {
	return NewTerminal(DefaultTerminalConfig(louvain),
		NewConstellation(NewShell(StarlinkGen1())), testGateways())
}

func BenchmarkAssignmentEpoch(b *testing.B) {
	term := benchTerminal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(int64(i) * int64(15*time.Second))
		if a := term.computeAssignment(at); !a.OK {
			b.Fatal("no assignment on a full shell")
		}
	}
}

func BenchmarkAssignmentEpochNaive(b *testing.B) {
	term := benchTerminal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(int64(i) * int64(15*time.Second))
		if a := term.computeAssignmentReference(at); !a.OK {
			b.Fatal("no assignment on a full shell")
		}
	}
}

func BenchmarkDelayAt(b *testing.B) {
	term := benchTerminal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sweep time forward so the delay and assignment memos behave as
		// in a campaign: mostly hits, a miss per new quantum/epoch.
		at := sim.Time(int64(i) * int64(10*time.Millisecond))
		term.DelayAt(at)
	}
}

func BenchmarkISLPathDelay(b *testing.B) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	router := NewISLRouter(con, 0)
	singapore := geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(int64(i) * int64(time.Minute))
		if _, _, ok := router.PathDelay(at, louvain, singapore, 25); !ok {
			b.Fatal("no ISL path on a full shell")
		}
	}
}
