package sim

import (
	"testing"
	"time"
)

// stepOne fires the earliest pending event, whatever its time, and reports
// whether one ran.
func (s *Scheduler) stepOne() bool { return s.step(MaxTime) }

// pending counts the armed, un-stopped timers by scanning the queue:
// stopped nodes stay queued until they surface or are re-armed.
func (s *Scheduler) pending() int {
	if s.hollow {
		s.settle()
	}
	n := 0
	for _, t := range s.heap {
		if !t.stopped {
			n++
		}
	}
	return n
}

// TestRunBeforeHalfOpenWindow pins the window contract of the fleet traffic
// scenario's barrier loop, which has no engine of its own beyond this call:
// RunBefore executes strictly below the horizon, leaves events at the
// horizon for the next window (after the epoch reassignment at the
// barrier), and lands the clock exactly on it.
func TestRunBeforeHalfOpenWindow(t *testing.T) {
	s := NewScheduler(1)
	var log []Time
	for _, at := range []Time{Time(time.Millisecond), Time(time.Second), Time(2 * time.Second)} {
		at := at
		s.At(at, func() { log = append(log, at) })
	}
	s.RunBefore(Time(time.Second))
	if len(log) != 1 || log[0] != Time(time.Millisecond) {
		t.Fatalf("window ran %v, want only the 1ms event", log)
	}
	if s.Now() != Time(time.Second) {
		t.Fatalf("clock = %v, want exactly the horizon", s.Now())
	}
	// The event at the old horizon belongs to the next window.
	s.RunBefore(Time(time.Second) + 1)
	if len(log) != 2 || log[1] != Time(time.Second) {
		t.Fatalf("second window ran %v, want the 1s event", log)
	}
	// RunBefore never moves the clock backwards.
	s.RunBefore(0)
	if s.Now() != Time(time.Second)+1 {
		t.Fatalf("clock moved backwards to %v", s.Now())
	}
}

// TestPendingLiveCountAcrossCompaction is the regression pin for
// Pending's live-only semantics: a stopped timer leaves the count the
// moment Stop returns, though its node stays queued; a Rearm that revives
// it puts it back; and dropping dead nodes as they surface does not change
// what Pending reports.
func TestPendingLiveCountAcrossCompaction(t *testing.T) {
	s := NewScheduler(1)
	const n = 256
	handles := make([]TimerHandle, n)
	for i := 0; i < n; i++ {
		handles[i] = s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if got := s.pending(); got != n {
		t.Fatalf("pending = %d, want %d", got, n)
	}
	// Stop three quarters: every Stop drops the count, none the queue.
	stopped := 0
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			if !handles[i].Stop() {
				t.Fatalf("timer %d did not stop", i)
			}
			stopped++
			if got, want := s.pending(), n-stopped; got != want {
				t.Fatalf("after %d stops: pending = %d, want %d", stopped, got, want)
			}
		}
	}
	if len(s.heap) != n {
		t.Fatalf("queue holds %d nodes after the stops, want all %d", len(s.heap), n)
	}
	// Revive one stopped timer a little later: counted again, on its own
	// node.
	handles[1] = s.Rearm(handles[1], Time(n+1)*Time(time.Millisecond), func(any) {}, nil)
	stopped--
	live := n - stopped
	if got := s.pending(); got != live || len(s.heap) != n {
		t.Fatalf("after a revival: pending = %d, queue = %d; want %d, %d", got, len(s.heap), live, n)
	}
	// The earliest live timer is the head; the dead nodes before it go.
	if head := s.peek(); head == nil || head.at != Time(time.Millisecond) {
		t.Fatalf("next event = %+v, want the 1ms timer", head)
	}
	// The live timers all still fire, exactly once each, and the dead
	// nodes surface and leave without changing the count.
	prev := s.Processed
	for s.stepOne() {
		if got, want := s.pending(), live-int(s.Processed-prev); got != want {
			t.Fatalf("after %d events: pending = %d, want %d", s.Processed-prev, got, want)
		}
	}
	if ran := int(s.Processed - prev); ran != live {
		t.Fatalf("ran %d events, want %d", ran, live)
	}
	if len(s.heap) != 0 {
		t.Fatalf("queue holds %d nodes after the drain, want none", len(s.heap))
	}
}
