package stats

import (
	"math"
	"reflect"
	"testing"

	"starlinkperf/internal/sim"
)

// Property tests for FixedDist at the 1M-terminal campaign regime: a
// million-plus observations per epoch, bulk ObserveN credits in the
// billions (a fast-forwarded probe train can collapse an entire epoch of
// a 1M fleet into one call), and per-worker scratch merged in arbitrary
// association. Counts are int64 and quantile targets go through float64,
// so the properties to pin are exact count/sum integrity, merge
// associativity, and that ceil(q·n) stays exact for n far beyond 2^32.

// propValue maps stream index i to an observation in [-50, 450) — wide
// enough to clamp into both edge buckets of a [0, 300) distribution. The
// stream is splitmix64 over i, so the properties run on an adversarially
// bucketed spread without test-order dependence.
func propValue(i uint64) float64 {
	return float64(sim.SplitMix64(i)%5000)/10 - 50
}

// sumCounts recomputes N from the raw buckets.
func sumCounts(d *FixedDist) int64 {
	var n int64
	for _, c := range d.counts {
		n += c
	}
	return n
}

// TestFixedDistCountIntegrityAtScale observes 1.2e6 values and checks
// the invariant the merge machinery rests on: N() equals the bucket-count
// sum equals the observation count, with out-of-range values clamped
// (never dropped), and every quantile lands mid-bucket inside the range.
func TestFixedDistCountIntegrityAtScale(t *testing.T) {
	const n = 1_200_000
	d := NewFixedDist(0.5, 600)
	for i := uint64(0); i < n; i++ {
		d.Observe(propValue(i))
	}
	if d.N() != n {
		t.Fatalf("N() = %d after %d observations", d.N(), n)
	}
	if got := sumCounts(&d); got != n {
		t.Fatalf("bucket counts sum to %d, want %d", got, n)
	}
	if d.counts[0] == 0 || d.counts[len(d.counts)-1] == 0 {
		t.Fatal("edge buckets empty; the stream no longer exercises clamping")
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		v := d.Quantile(q)
		if v < 0 || v >= 300 {
			t.Fatalf("Quantile(%v) = %v outside the distribution range", q, v)
		}
	}
}

// TestFixedDistMergeAssociativity splits one 1.5e6-value stream across
// three distributions and checks (a⊕b)⊕c == a⊕(b⊕c) == direct
// observation — the property that makes per-worker scratch merge order
// (and partition merge order before it) invisible in every export.
func TestFixedDistMergeAssociativity(t *testing.T) {
	const n = 1_500_000
	build := func(lo, hi uint64) FixedDist {
		d := NewFixedDist(0.5, 600)
		for i := lo; i < hi; i++ {
			d.Observe(propValue(i))
		}
		return d
	}
	direct := build(0, n)

	left := build(0, n/3) // (a⊕b)⊕c
	b1 := build(n/3, 2*n/3)
	c1 := build(2*n/3, n)
	left.Merge(&b1)
	left.Merge(&c1)

	a2 := build(0, n/3) // a⊕(b⊕c)
	right := build(n/3, 2*n/3)
	c2 := build(2*n/3, n)
	right.Merge(&c2)
	a2.Merge(&right)

	if !reflect.DeepEqual(left, direct) {
		t.Fatal("(a merge b) merge c differs from direct observation")
	}
	if !reflect.DeepEqual(a2, direct) {
		t.Fatal("a merge (b merge c) differs from direct observation")
	}
}

// TestFixedDistObserveNLargeCounts pins the bulk form against the loop
// form and then pushes n into the regime where float64 quantile math
// could silently round: multi-billion counts per bucket. ceil(q·n) is
// exact as long as q·n stays under 2^53, which a 1M-terminal fleet
// (≤ ~5e11 terminal-epochs per campaign) never approaches — this test
// runs at 6e9 to prove the margin with room to spare.
func TestFixedDistObserveNLargeCounts(t *testing.T) {
	loop := NewFixedDist(0.5, 600)
	bulk := NewFixedDist(0.5, 600)
	for i := uint64(0); i < 2000; i++ {
		v := propValue(i)
		k := int64(sim.SplitMix64(i)%700) - 100 // exercises the n <= 0 no-op too
		for j := int64(0); j < k; j++ {
			loop.Observe(v)
		}
		bulk.ObserveN(v, k)
	}
	if !reflect.DeepEqual(loop, bulk) {
		t.Fatal("ObserveN diverges from the equivalent Observe loop")
	}

	// Three buckets of 2e9 observations each: quantile targets must
	// resolve exactly at counts beyond int32 and beyond float32.
	big := NewFixedDist(1, 10)
	const per = 2_000_000_000
	big.ObserveN(1.5, per) // bucket 1, midpoint 1.5
	big.ObserveN(4.5, per) // bucket 4, midpoint 4.5
	big.ObserveN(8.5, per) // bucket 8, midpoint 8.5
	if big.N() != 3*per {
		t.Fatalf("N() = %d, want %d", big.N(), int64(3*per))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{1.0 / 3, 1.5}, // target exactly per: last observation of bucket 1
		{0.5, 4.5},
		{2.0 / 3, 4.5}, // target exactly 2·per: last observation of bucket 4
		{0.67, 8.5},
		{1, 8.5},
	}
	for _, tc := range cases {
		if got := big.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// The exactness precondition itself: q·n must be representable.
	if q := float64(big.N()); q >= math.Pow(2, 53) {
		t.Fatal("test regime exceeds float64 integer exactness; quantile math no longer proven")
	}
}

// TestFixedDistDrainInto checks the scratch-handoff form: counts move,
// the source resets to empty, and a second drain is a no-op.
func TestFixedDistDrainInto(t *testing.T) {
	acc := NewFixedDist(0.5, 600)
	scratch := NewFixedDist(0.5, 600)
	want := NewFixedDist(0.5, 600)
	for i := uint64(0); i < 10_000; i++ {
		v := propValue(i)
		want.Observe(v)
		if i%2 == 0 {
			acc.Observe(v)
		} else {
			scratch.Observe(v)
		}
	}
	scratch.DrainInto(&acc)
	if !reflect.DeepEqual(acc, want) {
		t.Fatal("drained accumulator differs from direct observation")
	}
	if scratch.N() != 0 || sumCounts(&scratch) != 0 {
		t.Fatal("scratch not empty after DrainInto")
	}
	scratch.DrainInto(&acc)
	if !reflect.DeepEqual(acc, want) {
		t.Fatal("draining an empty scratch changed the accumulator")
	}
}
