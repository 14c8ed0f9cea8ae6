// Package obs is the deterministic observability layer of the simulator:
// a sim-clock-aware metrics registry (counters, gauges, sim-time
// histograms) and a structured event tracer (ring-buffered typed records)
// with canonical sorted exports.
//
// Design constraints, in order:
//
//   - Determinism. Every export is a pure function of the simulation: no
//     wall-clock timestamps, no map-iteration order, no pointer values.
//     Registries merge commutatively and exports sort by name, so the
//     bytes are identical across repeated runs and across worker counts —
//     which is what lets the tests byte-diff two campaign runs as a
//     nondeterminism detector.
//   - Zero-alloc hot path. Counter.Inc, Gauge.Set, Histogram.Observe and
//     Tracer.Emit allocate nothing; the trace ring and histogram buckets
//     are preallocated. Instrumented components hold maybe-nil metric
//     pointers, and every method is a no-op on a nil receiver, so
//     disabled observability costs exactly one branch per site.
//   - No locks. The simulation is single-threaded per scheduler; each
//     shard of a parallel campaign owns its own registry/tracer, and the
//     parallel runner merges the per-shard instances in shard order.
package obs

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"time"
)

// Counter is a monotonically increasing uint64 metric. The zero of the
// simulation: packets sent, drops, RTO firings.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one. Safe on a nil receiver (disabled observability).
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level (queue depth, active flows). It tracks
// the last set value and the maximum ever set. Merging sums the last
// values and takes the max of maxima — both commutative, so shard merge
// order cannot leak into exports.
type Gauge struct {
	name      string
	last, max int64
}

// Set records the current level. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.last = v
	if v > g.max {
		g.max = v
	}
}

// Histogram is a fixed-bucket histogram of int64 observations (durations
// in nanoseconds, sizes in bytes). Bounds are inclusive upper bounds in
// ascending order; counts has one extra overflow bucket. Observation is
// a short linear scan — bucket counts are small (≤ ~32) and the scan is
// branch-predictable, which beats binary search at this size.
type Histogram struct {
	name   string
	bounds []int64
	counts []uint64
	total  uint64
	sum    int64
}

// DurationBounds is the default bucket layout for sim-time durations:
// exponential from 1 µs to ~137 s (1µs·4^k), which spans everything from
// LAN serialization to the paper's multi-second outages.
func DurationBounds() []int64 {
	out := make([]int64, 0, 14)
	for b := int64(time.Microsecond); b < int64(200*time.Second); b *= 4 {
		out = append(out, b)
	}
	return out
}

// SizeBounds is the default bucket layout for byte quantities:
// exponential from 256 B to 64 MB.
func SizeBounds() []int64 {
	out := make([]int64, 0, 10)
	for b := int64(256); b <= 64<<20; b *= 4 {
		out = append(out, b)
	}
	return out
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.total++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// ObserveN records n observations of the same value — the bulk form
// analytic fast-forwards use to credit a batch of identical samples in
// one call. Equivalent to calling Observe(v) n times. Safe on a nil
// receiver.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.total += n
	h.sum += v * int64(n)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i] += n
			return
		}
	}
	h.counts[len(h.bounds)] += n
}

// NewHistogram returns a standalone histogram with the given bucket
// bounds, unattached to any registry — scratch space for per-worker
// accumulation that is later drained into a registered histogram with
// DrainInto. Not exported by Registry exports.
func NewHistogram(bounds []int64) *Histogram {
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// DrainInto adds this histogram's buckets into dst and resets the
// receiver to empty. Both sides must share the bucket layout. Safe when
// either side is nil (no-op), so scratch histograms mirror the maybe-nil
// registered metric they drain into.
func (h *Histogram) DrainInto(dst *Histogram) {
	if h == nil || dst == nil || h.total == 0 {
		return
	}
	if len(h.bounds) != len(dst.bounds) {
		panic("obs: draining histogram into different bucket layout")
	}
	dst.total += h.total
	dst.sum += h.sum
	h.total = 0
	h.sum = 0
	for i, c := range h.counts {
		dst.counts[i] += c
		h.counts[i] = 0
	}
}

// Registry owns named metrics. Metric registration (Counter, Gauge,
// Histogram) happens at setup time and may allocate; the returned
// pointers are then incremented allocation-free on the hot path. All
// lookup methods are safe on a nil registry and return nil metrics, so
// components register unconditionally against a maybe-nil registry.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op metric) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Re-registration with different bounds
// panics: histogram identity includes its layout, or merges would be
// undefined.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		return h
	}
	h := &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Merge folds o into r: counters sum, gauge last-values sum and maxima
// take the max, histograms sum bucketwise. Merging is commutative and
// associative, so the result is independent of the order shards finish.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	for name, c := range o.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range o.gauges {
		dst := r.Gauge(name)
		dst.last += g.last
		if g.max > dst.max {
			dst.max = g.max
		}
	}
	for name, h := range o.hists {
		dst := r.Histogram(name, h.bounds)
		dst.total += h.total
		dst.sum += h.sum
		for i, c := range h.counts {
			dst.counts[i] += c
		}
	}
}

// sortedKeys returns the keys of a map in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// exportJSON renders the registry as canonical JSON: sections in fixed
// order, names sorted, integers only — byte-identical for equal metric
// state regardless of registration or merge order.
func (r *Registry) exportJSON(b *bytes.Buffer) {
	b.WriteString(`{"counters":{`)
	for i, name := range sortedKeys(r.counters) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%q:%d", name, r.counters[name].v)
	}
	b.WriteString(`},"gauges":{`)
	for i, name := range sortedKeys(r.gauges) {
		if i > 0 {
			b.WriteByte(',')
		}
		g := r.gauges[name]
		fmt.Fprintf(b, `%q:{"last":%d,"max":%d}`, name, g.last, g.max)
	}
	b.WriteString(`},"histograms":{`)
	for i, name := range sortedKeys(r.hists) {
		if i > 0 {
			b.WriteByte(',')
		}
		h := r.hists[name]
		fmt.Fprintf(b, `%q:{"count":%d,"sum":%d,"bounds":[`, name, h.total, h.sum)
		for j, bd := range h.bounds {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(bd, 10))
		}
		b.WriteString(`],"counts":[`)
		for j, c := range h.counts {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(c, 10))
		}
		b.WriteString(`]}`)
	}
	b.WriteString(`}}`)
}

// Snapshot flattens the registry into name → value pairs for a report:
// counters as-is, gauges as <name>.max, histograms as <name>.count and
// <name>.sum.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+2*len(r.hists))
	for name, c := range r.counters {
		out[name] = float64(c.v)
	}
	for name, g := range r.gauges {
		out[name+".max"] = float64(g.max)
	}
	for name, h := range r.hists {
		out[name+".count"] = float64(h.total)
		out[name+".sum"] = float64(h.sum)
	}
	return out
}
