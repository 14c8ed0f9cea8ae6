package stats

import (
	"sort"
	"time"
)

// Sample is a timestamped measurement (time given as a duration since the
// start of the campaign), the record format produced by the long-running
// monitors (pings every five minutes for five months, speedtests every 30
// minutes, ...).
type Sample struct {
	At    time.Duration
	Value float64
}

// Series is an append-only collection of timestamped samples.
type Series struct {
	samples []Sample
}

// NewSeries returns an empty series with room for capacity samples, for
// a caller that knows how many it will add.
func NewSeries(capacity int) *Series {
	return &Series{samples: make([]Sample, 0, max(capacity, 0))}
}

// Add appends a sample.
func (s *Series) Add(at time.Duration, v float64) {
	s.samples = append(s.samples, Sample{At: at, Value: v})
}

// Values returns the raw values in insertion order.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.samples))
	for i, smp := range s.samples {
		vs[i] = smp.Value
	}
	return vs
}

// Samples returns the underlying samples (shared, do not mutate).
func (s *Series) Samples() []Sample { return s.samples }

// Bin is the summary of a time window of a series: Figure 2's 6-hour bins.
type Bin struct {
	Start time.Duration
	Summary
}

// BinByTime splits the series into consecutive windows of the given width
// and summarizes each non-empty window.
func (s *Series) BinByTime(width time.Duration) []Bin {
	if width <= 0 || len(s.samples) == 0 {
		return nil
	}
	sorted := append([]Sample(nil), s.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	var bins []Bin
	cur := sorted[0].At / width * width
	var buf []float64
	flush := func() {
		if len(buf) > 0 {
			bins = append(bins, Bin{Start: cur, Summary: Summarize(buf)})
			buf = buf[:0]
		}
	}
	for _, smp := range sorted {
		w := smp.At / width * width
		if w != cur {
			flush()
			cur = w
		}
		buf = append(buf, smp.Value)
	}
	flush()
	return bins
}

// GroupByHourOfDay partitions samples into 24 groups keyed by the hour of
// the (simulated) day, the input shape Mood's test needs for the paper's
// diurnal-cycle analysis.
func (s *Series) GroupByHourOfDay() [][]float64 {
	groups := make([][]float64, 24)
	for _, smp := range s.samples {
		h := int(smp.At/time.Hour) % 24
		if h < 0 {
			h += 24
		}
		groups[h] = append(groups[h], smp.Value)
	}
	return groups
}
