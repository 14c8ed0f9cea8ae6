package measure

import (
	"fmt"
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

// allocMonitorTargets and allocMonitorProbes shape the gated campaign: the
// paper's 3 probes to each of 3 anchors per round.
const (
	allocMonitorTargets = 3
	allocMonitorProbes  = 3
	allocMonitorRound   = time.Minute
)

// allocMonitor starts an endless Monitor from a prober to three echo
// responders, each on its own two-node path (star), and runs it for an
// hour of rounds: from here on every echo draws a recycled record, every
// round reruns each target's ping run, and the freelists, the pending-echo
// map and the scheduler's heap are past their high-water marks. run
// advances the campaign by one round.
func allocMonitor(tb testing.TB) (run func(), p *Prober, results *int) {
	tb.Helper()
	var targets []starTarget
	for i := range allocMonitorTargets {
		targets = append(targets, starTarget{fmt.Sprintf("b%d", i), time.Duration(10+5*i) * time.Millisecond, true})
	}
	s, p, addrs, _ := star(5, targets...)
	results = new(int)
	p.Monitor(addrs, allocMonitorRound, allocMonitorProbes, sim.Time(1<<62), func(r PingResult) {
		if !r.OK {
			tb.Fatalf("echo to %v lost on a clean path", r.Target)
		}
		*results++
	})
	s.RunFor(time.Hour)
	return func() { s.RunFor(allocMonitorRound) }, p, results
}

// A warm Monitor allocates nothing per echo: echo records come from the
// prober's freelist and each target's ping run, results slice included,
// is reused round after round.
func TestAllocGateMonitorEcho(t *testing.T) {
	run, p, results := allocMonitor(t)
	const runs = 50
	before := *results
	perRound := testing.AllocsPerRun(runs, run)
	// AllocsPerRun makes one warm-up call on top of the counted ones.
	echoes := float64(*results-before) / (runs + 1)
	if want := float64(allocMonitorTargets * allocMonitorProbes); echoes != want {
		t.Fatalf("%.1f echoes per round, want %.0f", echoes, want)
	}
	t.Logf("%.2f allocs per round of %.0f echoes", perRound, echoes)
	// Measured: 0. The ceiling leaves room for a map or heap array that
	// grows inside the window, not for one allocation per echo.
	if perEcho := perRound / echoes; perEcho > 0.05 {
		t.Errorf("%.3f allocs per echo, want <= 0.05", perEcho)
	}
	// Each target has one echo in flight at a time, so the campaign
	// never needs more records than it has targets.
	if st := p.echoFree.Stats(); st.Gets-st.Hits > allocMonitorTargets {
		t.Errorf("%d echo records made for %d targets: %+v", st.Gets-st.Hits, allocMonitorTargets, st)
	}
}

// BenchmarkMonitorRound reports the steady-state cost of one Monitor
// round: 3 probes to each of 3 targets.
func BenchmarkMonitorRound(b *testing.B) {
	run, _, _ := allocMonitor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
