package stats

import "math"

// FixedDist is a fixed-width bucket histogram with deterministic
// quantiles: unlike Series it never stores samples, so campaigns with
// millions of observations (the fleet scenario's terminal-epochs) cost
// a few KB of fixed memory. Out-of-range values clamp into the edge
// buckets. The zero value is unusable; construct with NewFixedDist.
type FixedDist struct {
	width  float64
	counts []int64
	n      int64
}

// NewFixedDist returns a distribution of `buckets` buckets of `width`
// each, covering [0, width·buckets).
func NewFixedDist(width float64, buckets int) FixedDist {
	return FixedDist{width: width, counts: make([]int64, buckets)}
}

// Observe records one value.
func (d *FixedDist) Observe(v float64) {
	i := int(v / d.width)
	if i < 0 {
		i = 0
	}
	if i >= len(d.counts) {
		i = len(d.counts) - 1
	}
	d.counts[i]++
	d.n++
}

// ObserveN records n observations of the same value, bucketing exactly
// as n Observe(v) calls would — the bulk form the fleet fast-forward
// uses to credit a probe train's identical RTTs in one call.
func (d *FixedDist) ObserveN(v float64, n int64) {
	if n <= 0 {
		return
	}
	i := int(v / d.width)
	if i < 0 {
		i = 0
	}
	if i >= len(d.counts) {
		i = len(d.counts) - 1
	}
	d.counts[i] += n
	d.n += n
}

// N returns the observation count.
func (d *FixedDist) N() int64 { return d.n }

// Merge adds another distribution's counts into this one. Both must have
// the same width and bucket count (they were built for the same metric).
// Merging is commutative and associative, so folding per-partition
// distributions in any order yields the same histogram as observing every
// value into one — the property the sharded traffic scenario's per-region
// merge relies on.
func (d *FixedDist) Merge(o *FixedDist) {
	if d.width != o.width || len(d.counts) != len(o.counts) {
		panic("stats: merging FixedDists with different geometry")
	}
	for i, c := range o.counts {
		d.counts[i] += c
	}
	d.n += o.n
}

// DrainInto merges this distribution into dst and resets the receiver to
// empty — the per-epoch scratch handoff the partitioned fleet campaign
// uses: each worker observes into its own FixedDist, then the merge pass
// drains every scratch into the long-lived accumulator, leaving the
// scratch ready for the next epoch without a separate reset walk.
func (d *FixedDist) DrainInto(dst *FixedDist) {
	if d.n == 0 {
		return
	}
	dst.Merge(d)
	for i := range d.counts {
		d.counts[i] = 0
	}
	d.n = 0
}

// Quantile returns the q-quantile (0 < q <= 1) as the midpoint of the
// bucket holding the ceil(q·n)-th observation — a pure function of the
// counts, so invariant to observation order and worker count. Returns 0
// on an empty distribution.
func (d *FixedDist) Quantile(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(d.n)))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for i, c := range d.counts {
		cum += c
		if cum >= target {
			return (float64(i) + 0.5) * d.width
		}
	}
	return float64(len(d.counts)) * d.width
}
