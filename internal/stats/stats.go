// Package stats implements the descriptive and inferential statistics the
// measurement campaign reports: percentiles, boxplot summaries, empirical
// CDFs, time-binned series, histograms, Mood's median test (used by the
// paper to argue the absence of diurnal RTT patterns) and the two-sample
// Kolmogorov–Smirnov test (used by the Wehe-style traffic-discrimination
// detector).
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks (the "linear" / type-7
// estimator, matching numpy's default). xs need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Summary is a multi-percentile description of a sample, the unit of
// reporting for the paper's boxplots (Figure 1) and timelines (Figure 2):
// whiskers at p5/p95, box at p25/p75, a median stroke and the absolute
// minimum printed on the top axis.
type Summary struct {
	N                      int
	Min, Max               float64
	P5, P25, P50, P75, P95 float64
	P90, P99               float64
	Mean, StdDev           float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Min: nan, Max: nan, P5: nan, P25: nan, P50: nan, P75: nan, P95: nan, P90: nan, P99: nan, Mean: nan, StdDev: nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		P5:     percentileSorted(s, 5),
		P25:    percentileSorted(s, 25),
		P50:    percentileSorted(s, 50),
		P75:    percentileSorted(s, 75),
		P90:    percentileSorted(s, 90),
		P95:    percentileSorted(s, 95),
		P99:    percentileSorted(s, 99),
		Mean:   Mean(s),
		StdDev: StdDev(s),
	}
}

// String renders the summary compactly for harness output.
func (s Summary) String() string {
	var b strings.Builder
	Fprintf(&b, "n=%d min=%.3g p5=%.3g p25=%.3g p50=%.3g p75=%.3g p95=%.3g p99=%.3g max=%.3g",
		s.N, s.Min, s.P5, s.P25, s.P50, s.P75, s.P95, s.P99, s.Max)
	return b.String()
}

// Fprintf is fmt.Fprintf for report lines that print quantiles: a NaN
// float64 argument — what Summarize, Percentile, Median and Mean return for
// no samples — is shown as NoSample in the verb's width instead of "NaN"
// (or, converted to a duration on the way, as the most negative one).
func Fprintf(w io.Writer, format string, args ...any) (int, error) {
	for i, a := range args {
		if v, ok := a.(float64); ok && math.IsNaN(v) {
			args[i] = noSample{}
		}
	}
	return fmt.Fprintf(w, format, args...)
}

// NoSample is how a statistic of an empty sample is printed.
const NoSample = "—"

type noSample struct{}

func (noSample) Format(f fmt.State, _ rune) {
	pad := 0
	if w, ok := f.Width(); ok && w > 1 {
		pad = w - 1
	}
	if f.Flag('-') {
		fmt.Fprintf(f, "%s%*s", NoSample, pad, "")
	} else {
		fmt.Fprintf(f, "%*s%s", pad, "", NoSample)
	}
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the number of samples behind the ECDF.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns F(x) = P[X <= x].
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Count of samples <= x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (0<=q<=1) by linear interpolation.
func (e *ECDF) Quantile(q float64) float64 {
	return percentileSorted(e.sorted, q*100)
}

// Points returns up to n (x, F(x)) points spanning the support, suitable
// for plotting the CDF curves of Figures 3, 4 and 6.
func (e *ECDF) Points(n int) []Point {
	if len(e.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(e.sorted) {
		n = len(e.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(e.sorted) - 1) / max(1, n-1)
		x := e.sorted[idx]
		pts = append(pts, Point{X: x, Y: float64(idx+1) / float64(len(e.sorted))})
	}
	return pts
}

// Point is a generic (x, y) sample of a curve.
type Point struct{ X, Y float64 }

// CountBursts turns a slice of integer burst lengths into an ECDF over
// lengths, the form Figure 4 reports.
func CountBursts(lengths []int) *ECDF {
	xs := make([]float64, len(lengths))
	for i, l := range lengths {
		xs[i] = float64(l)
	}
	return NewECDF(xs)
}
