package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// Property-style checks of the quantile estimators over randomized (but
// seeded) inputs: percentiles are monotone in p, bounded by the sample
// extremes, order-invariant, and internally consistent with Summarize and
// ECDF.

func randomSamples(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch i % 3 {
		case 0:
			xs[i] = r.NormFloat64() * 50
		case 1:
			xs[i] = r.Float64() * 1000
		default:
			xs[i] = math.Exp(r.NormFloat64()) // heavy tail
		}
	}
	return xs
}

func TestPercentileMonotoneAndBounded(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 100; trial++ {
		xs := randomSamples(r, 1+r.IntN(400))
		lo, hi := slices.Min(xs), slices.Max(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := Percentile(xs, p)
			if v < prev {
				t.Fatalf("trial %d: Percentile not monotone: p=%v gives %v < %v", trial, p, v, prev)
			}
			if v < lo || v > hi {
				t.Fatalf("trial %d: Percentile(%v)=%v outside [min=%v, max=%v]", trial, p, v, lo, hi)
			}
			prev = v
		}
		if Percentile(xs, 0) != lo || Percentile(xs, 100) != hi {
			t.Fatalf("trial %d: endpoints must be min/max", trial)
		}
	}
}

func TestPercentileOrderInvariant(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 50; trial++ {
		xs := randomSamples(r, 2+r.IntN(100))
		shuffled := append([]float64(nil), xs...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, p := range []float64{5, 25, 50, 75, 95, 99} {
			if Percentile(xs, p) != Percentile(shuffled, p) {
				t.Fatalf("trial %d: Percentile(%v) depends on input order", trial, p)
			}
		}
		if Median(xs) != Percentile(xs, 50) {
			t.Fatalf("trial %d: Median != Percentile(50)", trial)
		}
	}
}

func TestSummarizeOrderingConsistent(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 100; trial++ {
		xs := randomSamples(r, 1+r.IntN(300))
		s := Summarize(xs)
		seq := []struct {
			name string
			v    float64
		}{
			{"min", s.Min}, {"p5", s.P5}, {"p25", s.P25}, {"p50", s.P50},
			{"p75", s.P75}, {"p90", s.P90}, {"p95", s.P95}, {"p99", s.P99}, {"max", s.Max},
		}
		for i := 1; i < len(seq); i++ {
			if seq[i].v < seq[i-1].v {
				t.Fatalf("trial %d: %s=%v < %s=%v", trial, seq[i].name, seq[i].v, seq[i-1].name, seq[i-1].v)
			}
		}
		if s.N != len(xs) {
			t.Fatalf("trial %d: N=%d want %d", trial, s.N, len(xs))
		}
		if s.Mean < s.Min || s.Mean > s.Max {
			t.Fatalf("trial %d: mean %v outside [min,max]", trial, s.Mean)
		}
		if s.P50 != Percentile(xs, 50) {
			t.Fatalf("trial %d: Summarize P50 disagrees with Percentile", trial)
		}
	}
}

func TestECDFQuantileConsistency(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 50; trial++ {
		xs := randomSamples(r, 2+r.IntN(200))
		e := NewECDF(xs)
		lo, hi := slices.Min(xs), slices.Max(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := e.Quantile(q)
			if v < prev {
				t.Fatalf("trial %d: ECDF.Quantile not monotone at q=%v", trial, q)
			}
			if v < lo || v > hi {
				t.Fatalf("trial %d: Quantile(%v)=%v outside sample range", trial, q, v)
			}
			// Nearly a Galois connection: the interpolated (type-7)
			// quantile sits between two order statistics, so the mass at
			// or below it can undershoot q by at most one sample.
			if got := e.At(v); got+1.0/float64(e.N())+1e-12 < q {
				t.Fatalf("trial %d: At(Quantile(%v))=%v < q-1/n", trial, q, got)
			}
			prev = v
		}
		// At is a CDF: monotone, 0 below the support, 1 at the max.
		if e.At(lo-1) != 0 || e.At(hi) != 1 {
			t.Fatalf("trial %d: At endpoints wrong: At(min-1)=%v At(max)=%v", trial, e.At(lo-1), e.At(hi))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prevF := 0.0
		for _, x := range sorted {
			f := e.At(x)
			if f < prevF {
				t.Fatalf("trial %d: ECDF.At not monotone", trial)
			}
			prevF = f
		}
	}
}
