package obs

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// Options selects observability for a testbed. The zero value (disabled)
// is the default everywhere; enabling costs one pointer nil-check per
// instrumented site plus the ring/registry memory.
type Options struct {
	// Enabled turns on metric and trace collection.
	Enabled bool
	// TraceCap bounds the per-shard event ring. 0 means DefaultTraceCap.
	TraceCap int
}

// DefaultTraceCap is the per-shard trace ring size when Options.TraceCap
// is zero: large enough to hold a quick campaign's full event stream,
// small enough (~1.5 MB per shard) to be negligible.
const DefaultTraceCap = 1 << 15

// Sink bundles the registry and tracer one simulation shard writes into.
// All methods on a nil *Sink (observability disabled) are no-ops, so a
// component can hold a maybe-nil Sink and instrument unconditionally.
type Sink struct {
	Reg *Registry
	Tr  *Tracer
}

// NewSink returns a sink with an empty registry and a trace ring of the
// given capacity (0 → DefaultTraceCap).
func NewSink(traceCap int) *Sink {
	if traceCap <= 0 {
		traceCap = DefaultTraceCap
	}
	return &Sink{Reg: NewRegistry(), Tr: NewTracer(traceCap)}
}

// Registry returns the sink's registry, or nil when s is nil.
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Reg
}

// Tracer returns the sink's tracer, or nil when s is nil.
func (s *Sink) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tr
}

// Collector gathers per-shard sinks from a parallel campaign run and
// exports them deterministically. Shards register concurrently (the only
// place obs needs a lock — workers race only on Add, never on the hot
// path), but every export first sorts sources by name. Shard source
// names are zero-padded ("latency/0003") so lexicographic order equals
// shard order, making exports invariant to worker count and completion
// order.
type Collector struct {
	mu      sync.Mutex
	sources []source
}

type source struct {
	name string
	sink *Sink
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// ShardSource formats the canonical source name for shard i of a family:
// zero-padded to four digits so lexicographic order equals shard order,
// the property that makes every export worker-invariant. All shard
// registrations — campaign repetitions and traffic scenario shards alike
// — go through this one formatter.
func ShardSource(family string, i int) string {
	return fmt.Sprintf("%s/%04d", family, i)
}

// Add registers one shard's sink under a unique source name. Safe for
// concurrent use; safe on a nil collector (sink is simply discarded).
func (c *Collector) Add(name string, s *Sink) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	c.sources = append(c.sources, source{name: name, sink: s})
	c.mu.Unlock()
}

// sorted snapshots the source list in name order.
func (c *Collector) sorted() []source {
	c.mu.Lock()
	out := append([]source(nil), c.sources...)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// MergedRegistry folds every shard registry into one. Merge is
// commutative, but folding in sorted order anyway keeps the operation
// order-independent by construction rather than by proof.
func (c *Collector) MergedRegistry() *Registry {
	if c == nil {
		return nil
	}
	merged := NewRegistry()
	for _, s := range c.sorted() {
		merged.Merge(s.sink.Reg)
	}
	return merged
}

// ExportMetricsJSON renders the canonical metrics document: the merged
// registry plus each shard's registry keyed by source name, sorted.
func (c *Collector) ExportMetricsJSON() []byte {
	if c == nil {
		return nil
	}
	var b bytes.Buffer
	b.WriteString(`{"merged":`)
	c.MergedRegistry().exportJSON(&b)
	b.WriteString(`,"sources":{`)
	for i, s := range c.sorted() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('"')
		b.WriteString(s.name)
		b.WriteString(`":`)
		s.sink.Reg.exportJSON(&b)
	}
	b.WriteString("}}\n")
	return b.Bytes()
}

// ExportTraceJSONL renders every retained event as JSON Lines: sources
// in sorted name order, each source's events in emission order.
func (c *Collector) ExportTraceJSONL() []byte {
	if c == nil {
		return nil
	}
	var b bytes.Buffer
	for _, s := range c.sorted() {
		s.sink.Tr.appendJSONL(&b, s.name)
	}
	return b.Bytes()
}

// ExportTraceBinary renders the compact binary trace: concatenated
// per-source "OTR1" sections in sorted name order.
func (c *Collector) ExportTraceBinary() []byte {
	if c == nil {
		return nil
	}
	var b bytes.Buffer
	for _, s := range c.sorted() {
		s.sink.Tr.appendBinary(&b, s.name)
	}
	return b.Bytes()
}

// Snapshot returns the merged registry flattened to name → value pairs,
// or nil when c is nil.
func (c *Collector) Snapshot() map[string]float64 {
	if c == nil {
		return nil
	}
	return c.MergedRegistry().Snapshot()
}
