package sim

import (
	"testing"
	"time"
)

// TestRunBeforeHalfOpenWindow pins the window contract of the fleet traffic
// scenario's barrier loop, which has no engine of its own beyond this call:
// RunBefore executes strictly below the horizon, leaves events at the
// horizon for the next window (after the epoch reassignment at the
// barrier), and lands the clock exactly on it.
func TestRunBeforeHalfOpenWindow(t *testing.T) {
	s := NewScheduler(1)
	var log []Time
	for _, at := range []Time{Time(Millisecond), Time(Second), Time(2 * Second)} {
		at := at
		s.At(at, func() { log = append(log, at) })
	}
	s.RunBefore(Time(Second))
	if len(log) != 1 || log[0] != Time(Millisecond) {
		t.Fatalf("window ran %v, want only the 1ms event", log)
	}
	if s.Now() != Time(Second) {
		t.Fatalf("clock = %v, want exactly the horizon", s.Now())
	}
	// The event at the old horizon belongs to the next window.
	s.RunBefore(Time(Second) + 1)
	if len(log) != 2 || log[1] != Time(Second) {
		t.Fatalf("second window ran %v, want the 1s event", log)
	}
	// RunBefore never moves the clock backwards.
	s.RunBefore(0)
	if s.Now() != Time(Second)+1 {
		t.Fatalf("clock moved backwards to %v", s.Now())
	}
}

// TestPendingLiveCountAcrossCompaction is the regression pin for
// Pending's live-only semantics: stopped timers leave the count the
// moment Stop returns, and the lazy heap compaction that later reclaims
// their nodes must not change what Pending reports. The sizes are chosen
// to cross the compactMin threshold so the compaction path actually runs.
func TestPendingLiveCountAcrossCompaction(t *testing.T) {
	s := NewScheduler(1)
	n := 4 * compactMin
	handles := make([]TimerHandle, n)
	for i := 0; i < n; i++ {
		handles[i] = s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if got := s.Pending(); got != n {
		t.Fatalf("pending = %d, want %d", got, n)
	}
	// Stop three quarters: once nstopped*2 > len(heap) holds, a Stop
	// compacts.
	stopped := 0
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			if !handles[i].Stop() {
				t.Fatalf("timer %d did not stop", i)
			}
			stopped++
			if got, want := s.Pending(), n-stopped; got != want {
				t.Fatalf("after %d stops: pending = %d, want %d", stopped, got, want)
			}
		}
	}
	live := n - stopped
	// The earliest live timer survived the sweep.
	if head := s.peek(); head == nil || head.at != Time(Millisecond) {
		t.Fatalf("next event = %+v, want the 1ms timer", head)
	}
	if got := s.Pending(); got != live {
		t.Fatalf("pending after compaction = %d, want %d", got, live)
	}
	// The live timers all still fire, exactly once each.
	prev := s.Processed
	s.Run()
	ran := int(s.Processed - prev)
	if ran != live {
		t.Fatalf("ran %d events, want %d", ran, live)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
}
