package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
		{40, 29}, // 15,20,35,40,50: rank=1.6 -> 20 + 0.6*(35-20) = 29
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileProperties(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	f := func(n uint8) bool {
		m := int(n%50) + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		p50 := Percentile(xs, 50)
		// Median bounded by extremes and monotone in p.
		return p50 >= s[0] && p50 <= s[m-1] &&
			Percentile(xs, 25) <= p50 && p50 <= Percentile(xs, 75)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("summary basics wrong: %+v", s)
	}
	if s.P50 != 50 || s.P25 != 25 || s.P75 != 75 || s.P5 != 5 || s.P95 != 95 {
		t.Fatalf("percentiles wrong: %+v", s)
	}
	if math.Abs(s.Mean-50) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
}

func TestECDFMonotone(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.ExpFloat64() * 50
	}
	e := NewECDF(xs)
	prev := -1.0
	for x := -10.0; x < 300; x += 1.7 {
		v := e.At(x)
		if v < prev {
			t.Fatalf("ECDF decreased at %v: %v < %v", x, v, prev)
		}
		if v < 0 || v > 1 {
			t.Fatalf("ECDF out of range at %v: %v", x, v)
		}
		prev = v
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	e := NewECDF(xs)
	if q := e.Quantile(0.5); q != 30 {
		t.Errorf("Quantile(0.5) = %v", q)
	}
	if q := e.Quantile(0); q != 10 {
		t.Errorf("Quantile(0) = %v", q)
	}
	if q := e.Quantile(1); q != 50 {
		t.Errorf("Quantile(1) = %v", q)
	}
}

func TestECDFPoints(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	pts := NewECDF(xs).Points(10)
	if len(pts) != 10 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatal("points not monotone")
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("last point Y = %v, want 1", pts[len(pts)-1].Y)
	}
}

func TestMoodsMedianSameDistribution(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	groups := make([][]float64, 8)
	for i := range groups {
		for j := 0; j < 300; j++ {
			groups[i] = append(groups[i], 50+5*r.NormFloat64())
		}
	}
	_, _, p := MoodsMedianTest(groups)
	if p < 0.01 {
		t.Errorf("same-median groups rejected: p = %v", p)
	}
}

func TestMoodsMedianDifferentMedians(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	groups := make([][]float64, 4)
	for i := range groups {
		shift := float64(i) * 10
		for j := 0; j < 300; j++ {
			groups[i] = append(groups[i], 50+shift+2*r.NormFloat64())
		}
	}
	_, _, p := MoodsMedianTest(groups)
	if p > 1e-6 {
		t.Errorf("clearly shifted groups not rejected: p = %v", p)
	}
}

func TestMoodsMedianDegenerate(t *testing.T) {
	if _, _, p := MoodsMedianTest(nil); p != 1 {
		t.Error("no groups should give p=1")
	}
	if _, _, p := MoodsMedianTest([][]float64{{1, 2, 3}}); p != 1 {
		t.Error("single group should give p=1")
	}
}

func TestChiSquaredSurvival(t *testing.T) {
	// Known values: P[X>=3.841 | df=1] ~ 0.05, P[X>=11.07 | df=5] ~ 0.05.
	cases := []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},
		{11.070, 5, 0.05},
		{6.635, 1, 0.01},
		{0, 3, 1},
	}
	for _, c := range cases {
		if got := ChiSquaredSurvival(c.x, c.df); math.Abs(got-c.want) > 0.002 {
			t.Errorf("chi2(%v, df=%d) = %v, want ~%v", c.x, c.df, got, c.want)
		}
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	d, p := KolmogorovSmirnov(xs, xs)
	if d != 0 {
		t.Errorf("D = %v for identical samples", d)
	}
	if p < 0.99 {
		t.Errorf("p = %v for identical samples", p)
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i) + 1000
	}
	d, p := KolmogorovSmirnov(a, b)
	if d != 1 {
		t.Errorf("D = %v for disjoint samples, want 1", d)
	}
	if p > 1e-10 {
		t.Errorf("p = %v for disjoint samples", p)
	}
}

func TestKSSameDistribution(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	_, p := KolmogorovSmirnov(a, b)
	if p < 0.001 {
		t.Errorf("same-distribution samples rejected: p = %v", p)
	}
}

func TestSeriesBinByTime(t *testing.T) {
	var s Series
	for i := 0; i < 48; i++ {
		s.Add(time.Duration(i)*time.Hour, float64(i))
	}
	bins := s.BinByTime(6 * time.Hour)
	if len(bins) != 8 {
		t.Fatalf("got %d bins, want 8", len(bins))
	}
	if bins[0].Start != 0 || bins[0].N != 6 || bins[0].Min != 0 || bins[0].Max != 5 {
		t.Fatalf("bin0 = %+v", bins[0])
	}
	if bins[7].Start != 42*time.Hour || bins[7].Max != 47 {
		t.Fatalf("bin7 = %+v", bins[7])
	}
}

func TestSeriesBinSkipsEmptyWindows(t *testing.T) {
	var s Series
	s.Add(0, 1)
	s.Add(25*time.Hour, 2)
	bins := s.BinByTime(6 * time.Hour)
	if len(bins) != 2 {
		t.Fatalf("got %d bins, want 2 (gap windows skipped)", len(bins))
	}
}

func TestSeriesGroupByHourOfDay(t *testing.T) {
	var s Series
	for d := 0; d < 3; d++ {
		for h := 0; h < 24; h++ {
			s.Add(time.Duration(d*24+h)*time.Hour+time.Minute, float64(h))
		}
	}
	groups := s.GroupByHourOfDay()
	for h, g := range groups {
		if len(g) != 3 {
			t.Fatalf("hour %d has %d samples, want 3", h, len(g))
		}
		for _, v := range g {
			if v != float64(h) {
				t.Fatalf("hour %d contains sample %v", h, v)
			}
		}
	}
}

func TestCountBursts(t *testing.T) {
	e := CountBursts([]int{1, 1, 1, 2, 3})
	if got := e.At(1); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("F(1) = %v, want 0.6", got)
	}
	if got := e.At(3); got != 1 {
		t.Errorf("F(3) = %v, want 1", got)
	}
}

func TestMinMaxMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if math.Abs(StdDev(xs)-2.138089935) > 1e-6 {
		t.Fatalf("stddev = %v", StdDev(xs))
	}
	if !math.IsNaN(StdDev([]float64{1})) {
		t.Fatal("stddev of single sample should be NaN")
	}
}

func TestFprintfNoSample(t *testing.T) {
	var b strings.Builder
	s := Summarize(nil)
	Fprintf(&b, "n=%d [%6.1f] [%-6.1f] [%.0f] [%v] [%5.2f]", s.N, s.P50, s.Mean, Median(nil), s.Max, 1.5)
	if want := "n=0 [     —] [—     ] [—] [—] [ 1.50]"; b.String() != want {
		t.Errorf("got %q, want %q", b.String(), want)
	}
	if got := s.String(); strings.Contains(got, "NaN") || !strings.HasPrefix(got, "n=0 min=— ") {
		t.Errorf("empty Summary renders as %q", got)
	}
}
