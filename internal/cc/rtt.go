package cc

import (
	"time"

	"starlinkperf/internal/sim"
)

// RTTEstimator maintains the RFC 9002 §5 round-trip time state.
//
// The minimum filter has two modes. The zero value (what CUBIC and Fixed
// connections keep, and so the paper-reproduction profile) takes the
// all-time minimum. The estimator NewRTTEstimator returns for BBR takes
// it over a sliding window of simulated time, so a handover that
// permanently raises the path RTT stops poisoning BBR's model once the
// pre-handover samples age out. Windowed estimators must be fed through
// UpdateAt (Update has no clock and keeps every sample forever).
type RTTEstimator struct {
	latest   time.Duration
	min      time.Duration
	smoothed time.Duration
	variance time.Duration
	samples  int

	// minWindow, when positive, bounds how long a min-RTT sample is
	// trusted: Min returns the minimum over the last minWindow of sim
	// time (as of the latest UpdateAt) instead of the all-time minimum.
	minWindow time.Duration
	// minQ is the monotonic deque backing the windowed minimum: entries
	// ascend in both timestamp and value, so the front is the windowed
	// minimum and each sample is pushed/popped at most once.
	minQ []minSample
}

type minSample struct {
	at  sim.Time
	rtt time.Duration
}

// NewRTTEstimator returns the estimator a connection running ctl keeps:
// BBR's minimum ages out after bbrMinRTTWindow, because its model must
// follow a path change; every other controller keeps the all-time
// minimum, as the paper's stacks did.
func NewRTTEstimator(ctl CongestionController) RTTEstimator {
	var r RTTEstimator
	if _, ok := ctl.(*BBR); ok {
		r.minWindow = bbrMinRTTWindow
	}
	return r
}

// InitialRTT is the pre-handshake RTT assumption (RFC 9002 §6.2.2).
const InitialRTT = 333 * time.Millisecond

// Update folds an RTT sample in, subtracting ackDelay per RFC 9002 §5.3
// when it does not underrun the minimum. It is the clockless form of
// UpdateAt and only maintains the all-time minimum; windowed estimators
// must use UpdateAt.
func (r *RTTEstimator) Update(sample, ackDelay time.Duration) {
	r.UpdateAt(0, sample, ackDelay)
}

// UpdateAt folds an RTT sample observed at sim-time now. On an all-time
// estimator it is byte-for-byte equivalent to Update.
func (r *RTTEstimator) UpdateAt(now sim.Time, sample, ackDelay time.Duration) {
	if sample <= 0 {
		return
	}
	r.latest = sample
	if r.minWindow > 0 {
		r.foldMin(now, sample)
	}
	if r.samples == 0 {
		r.min = sample
		r.smoothed = sample
		r.variance = sample / 2
		r.samples = 1
		return
	}
	r.samples++
	if sample < r.min {
		r.min = sample
	}
	adjusted := sample
	if adjusted-ackDelay >= r.Min() {
		adjusted -= ackDelay
	}
	d := r.smoothed - adjusted
	if d < 0 {
		d = -d
	}
	r.variance = (3*r.variance + d) / 4
	r.smoothed = (7*r.smoothed + adjusted) / 8
}

// foldMin maintains the windowed-min deque: expire entries older than the
// window, drop entries the new sample dominates, append.
func (r *RTTEstimator) foldMin(now sim.Time, sample time.Duration) {
	cutoff := now.Add(-r.minWindow)
	drop := 0
	for drop < len(r.minQ) && r.minQ[drop].at < cutoff {
		drop++
	}
	if drop > 0 {
		r.minQ = r.minQ[:copy(r.minQ, r.minQ[drop:])]
	}
	for len(r.minQ) > 0 && r.minQ[len(r.minQ)-1].rtt >= sample {
		r.minQ = r.minQ[:len(r.minQ)-1]
	}
	r.minQ = append(r.minQ, minSample{at: now, rtt: sample})
}

// Latest returns the most recent sample.
func (r *RTTEstimator) Latest() time.Duration { return r.latest }

// Min returns the minimum observed RTT: all-time, or on a windowed
// estimator the minimum over its trailing window of sim time as of the
// latest UpdateAt.
func (r *RTTEstimator) Min() time.Duration {
	if r.minWindow > 0 && len(r.minQ) > 0 {
		return r.minQ[0].rtt
	}
	return r.min
}

// Smoothed returns the smoothed RTT, or InitialRTT before any sample.
func (r *RTTEstimator) Smoothed() time.Duration {
	if r.samples == 0 {
		return InitialRTT
	}
	return r.smoothed
}

// Variance returns the RTT variance estimate.
func (r *RTTEstimator) Variance() time.Duration {
	if r.samples == 0 {
		return InitialRTT / 2
	}
	return r.variance
}

// PTO returns the probe timeout period: smoothed + max(4*var, 1ms) +
// maxAckDelay (RFC 9002 §6.2.1).
func (r *RTTEstimator) PTO(maxAckDelay time.Duration) time.Duration {
	v := 4 * r.Variance()
	if v < time.Millisecond {
		v = time.Millisecond
	}
	return r.Smoothed() + v + maxAckDelay
}

// LossDelay returns the time-threshold loss delay: 9/8 * max(smoothed,
// latest), floored at 1 ms (RFC 9002 §6.1.2).
func (r *RTTEstimator) LossDelay() time.Duration {
	m := r.Smoothed()
	if r.latest > m {
		m = r.latest
	}
	d := m * 9 / 8
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
