package sim

import (
	"testing"
	"time"
)

// churnConn mimics a TCP sender's timer life cycle: every data event
// stops the previous retransmit timer, re-arms it further out, and
// schedules the next data event — the arm/fire/re-arm churn that
// dominates scheduler traffic in the transfer campaigns.
type churnConn struct {
	s      *Scheduler
	retx   TimerHandle
	left   int
	period Duration
}

func churnNop(arg any) {}

func churnFire(arg any) {
	c := arg.(*churnConn)
	c.retx.Stop()
	c.retx = c.s.AfterFunc(10*c.period, churnNop, c)
	if c.left > 0 {
		c.left--
		c.s.AfterFunc(c.period, churnFire, c)
	}
}

func runChurn(b *testing.B, s *Scheduler) {
	c := &churnConn{s: s, period: Duration(time.Millisecond)}
	// Warm the freelist so the measurement sees steady state.
	c.left = 1024
	s.AfterFunc(c.period, churnFire, c)
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	c.left = b.N
	s.AfterFunc(c.period, churnFire, c)
	s.Run()
}

// BenchmarkSchedulerChurn must report 0 allocs/op: the retransmit
// pattern reuses pooled Timer nodes and schedules through package-level
// EventFuncs, so the steady-state event loop produces no garbage.
func BenchmarkSchedulerChurn(b *testing.B) {
	runChurn(b, NewScheduler(1))
}
