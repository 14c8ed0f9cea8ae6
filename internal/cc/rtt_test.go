package cc

import (
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

// TestRTTMinWindowHandoverStep is the regression test for the stale-min
// bug: a handover permanently raising the path RTT from 40 ms to 60 ms
// must eventually raise the reported minimum too. The all-time filter
// (the zero value, the seed behavior) keeps 40 ms forever; BBR's windowed
// filter forgets it once the window slides past the handover.
func TestRTTMinWindowHandoverStep(t *testing.T) {
	var allTime RTTEstimator
	windowed := NewRTTEstimator(NewBBR(1200))

	feed := func(r *RTTEstimator, from, to float64, rtt time.Duration) {
		for s := from; s < to; s += 0.25 {
			r.UpdateAt(at(s), rtt, 0)
		}
	}
	// 5 s of pre-handover samples at 40 ms, then the handover steps the
	// path RTT to 60 ms for 20 s.
	for _, r := range []*RTTEstimator{&allTime, &windowed} {
		feed(r, 0, 5, 40*time.Millisecond)
		feed(r, 5, 25, 60*time.Millisecond)
	}

	if got := allTime.Min(); got != 40*time.Millisecond {
		t.Errorf("all-time min = %v, want the stale 40ms (seed semantics)", got)
	}
	if got := windowed.Min(); got != 60*time.Millisecond {
		t.Errorf("windowed min = %v, want 60ms once pre-handover samples aged out", got)
	}
}

// TestRTTMinWindowTracksImprovement checks the other direction: a
// handover lowering the RTT must be picked up immediately in both modes.
func TestRTTMinWindowTracksImprovement(t *testing.T) {
	r := NewRTTEstimator(NewBBR(1200))
	r.UpdateAt(at(1), 60*time.Millisecond, 0)
	r.UpdateAt(at(2), 35*time.Millisecond, 0)
	if got := r.Min(); got != 35*time.Millisecond {
		t.Errorf("min = %v, want 35ms", got)
	}
}

// TestRTTMinWindowInsideWindowKeepsMin: while the low sample is still
// inside the window it must keep winning over higher recent samples.
func TestRTTMinWindowInsideWindowKeepsMin(t *testing.T) {
	r := NewRTTEstimator(NewBBR(1200))
	r.UpdateAt(at(1), 40*time.Millisecond, 0)
	for s := 2.0; s < 10; s++ {
		r.UpdateAt(at(s), 60*time.Millisecond, 0)
	}
	if got := r.Min(); got != 40*time.Millisecond {
		t.Errorf("min = %v, want 40ms while still in window", got)
	}
}

// TestRTTUpdateAtZeroWindowMatchesUpdate pins the bit-identity contract:
// on an all-time estimator, UpdateAt and Update produce identical estimator
// state, which is what keeps the paper transport profile byte-identical
// to the seed.
func TestRTTUpdateAtZeroWindowMatchesUpdate(t *testing.T) {
	var a, b RTTEstimator
	samples := []struct {
		rtt, ackDelay time.Duration
	}{
		{40 * time.Millisecond, 0},
		{55 * time.Millisecond, 5 * time.Millisecond},
		{38 * time.Millisecond, 2 * time.Millisecond},
		{90 * time.Millisecond, 25 * time.Millisecond},
		{41 * time.Millisecond, 0},
	}
	for i, s := range samples {
		a.Update(s.rtt, s.ackDelay)
		b.UpdateAt(sim.Time(i)*sim.Time(time.Second), s.rtt, s.ackDelay)
	}
	if a.Min() != b.Min() || a.Smoothed() != b.Smoothed() ||
		a.Variance() != b.Variance() || a.Latest() != b.Latest() ||
		a.samples != b.samples {
		t.Errorf("all-time UpdateAt diverged from Update: %+v vs %+v", a, b)
	}
}
