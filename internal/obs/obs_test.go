package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

func TestNilSafety(t *testing.T) {
	// Everything must be a no-op on nil receivers: this is the "disabled
	// observability costs one branch" contract.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	var h *Histogram
	h.Observe(9)
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", DurationBounds()) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.Merge(NewRegistry())
	var tr *Tracer
	tr.Emit(0, KindDrop, tr.Subject("l"), 1, 2)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must retain nothing")
	}
	var s *Sink
	if s.Registry() != nil || s.Tracer() != nil {
		t.Fatal("nil sink accessors")
	}
	var col *Collector
	col.Add("a", NewSink())
	if col.MergedRegistry() != nil || col.ExportMetricsJSON() != nil ||
		col.ExportTraceJSONL() != nil || col.ExportTraceBinary() != nil || col.Snapshot() != nil || col.Overwritten() != "" {
		t.Fatal("nil collector exports")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("pkts") != c {
		t.Fatal("counter identity not stable")
	}

	g := r.Gauge("depth")
	g.Set(4)
	g.Set(7)
	g.Set(2)
	if g.last != 2 || g.max != 7 {
		t.Fatalf("gauge last=%d max=%d, want 2/7", g.last, g.max)
	}

	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.total != 5 || h.sum != 5126 {
		t.Fatalf("hist total=%d sum=%d", h.total, h.sum)
	}
	want := []uint64{2, 2, 0, 1} // ≤10: {5,10}; ≤100: {11,100}; ≤1000: {}; overflow: {5000}
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []int64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bounds mismatch")
		}
	}()
	r.Histogram("h", []int64{1, 2, 3})
}

func TestRegistryMergeCommutative(t *testing.T) {
	build := func(bias int64) *Registry {
		r := NewRegistry()
		r.Counter("c").Add(uint64(bias))
		r.Gauge("g").Set(bias)
		h := r.Histogram("h", []int64{10, 100})
		h.Observe(bias)
		return r
	}
	ab := NewRegistry()
	ab.Merge(build(3))
	ab.Merge(build(50))
	ba := NewRegistry()
	ba.Merge(build(50))
	ba.Merge(build(3))
	if !bytes.Equal(registryJSON(ab), registryJSON(ba)) {
		t.Fatalf("merge not commutative:\n%s\n%s", registryJSON(ab), registryJSON(ba))
	}
	if ab.Counter("c").Value() != 53 || ab.Gauge("g").max != 50 || ab.Histogram("h", []int64{10, 100}).total != 2 {
		t.Fatal("merged values wrong")
	}
}

// registryJSON is r's canonical JSON, as ExportMetricsJSON writes it.
func registryJSON(r *Registry) []byte {
	var b bytes.Buffer
	r.exportJSON(&b)
	return b.Bytes()
}

func TestExportJSONCanonicalAndValid(t *testing.T) {
	r := NewRegistry()
	// Register in non-sorted order; export must sort.
	r.Counter("zeta").Inc()
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Set(-4)
	r.Histogram("h", []int64{1}).Observe(0)
	out := registryJSON(r)
	var decoded map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, out)
	}
	if idx := bytes.Index(out, []byte("alpha")); idx < 0 || idx > bytes.Index(out, []byte("zeta")) {
		t.Fatalf("counters not sorted: %s", out)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	s := tr.Subject("link")
	for i := 0; i < 6; i++ {
		tr.Emit(sim.Time(i), KindDrop, s, int64(i), 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if n := tr.over[KindDrop]; n != 2 {
		t.Fatalf("overwritten = %d, want 2 (6 emits into a ring of 4)", n)
	}
	ev := tr.Events()
	for i, e := range ev {
		if e.A != int64(i+2) {
			t.Fatalf("event %d has A=%d, want %d (oldest-first after wrap)", i, e.A, i+2)
		}
	}
}

// The collector names each source whose ring overwrote records, with the
// count per kind, in source order; a source that kept everything is left
// out.
func TestCollectorNamesOverwrittenKinds(t *testing.T) {
	c := NewCollector()
	for _, name := range []string{"b", "a", "c"} {
		s := &Sink{Reg: NewRegistry(), Tr: NewTracer(2)}
		subj := s.Tr.Subject("x")
		if name != "c" {
			for i := 0; i < 4; i++ {
				s.Tr.Emit(sim.Time(i), KindRTO, subj, 0, 0)
			}
			s.Tr.Emit(5, KindDrop, subj, 0, 0)
		}
		c.Add(name, s)
	}
	// Four RTO records then a drop into a ring of two: the drop and the
	// last RTO stay, three RTO records are overwritten.
	if got, want := c.Overwritten(), "a rto=3; b rto=3"; got != want {
		t.Errorf("Overwritten() = %q, want %q", got, want)
	}
}

func TestTracerSubjectInterning(t *testing.T) {
	tr := NewTracer(8)
	a := tr.Subject("a")
	b := tr.Subject("b")
	if a == b || tr.Subject("a") != a {
		t.Fatal("interning broken")
	}
	if tr.SubjectName(a) != "a" || tr.SubjectName(b) != "b" {
		t.Fatal("subject name resolution broken")
	}
}

func TestKindStrings(t *testing.T) {
	for k := 0; k < numKinds; k++ {
		if Kind(k).String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatal("unknown kind fallback")
	}
}

// fillSink produces deterministic content as a function of idx only.
func fillSink(idx int) *Sink {
	s := &Sink{Reg: NewRegistry(), Tr: NewTracer(16)}
	s.Reg.Counter("n").Add(uint64(idx + 1))
	s.Reg.Gauge("g").Set(int64(idx))
	s.Reg.Histogram("h", []int64{10}).Observe(int64(idx))
	subj := s.Tr.Subject(fmt.Sprintf("shard%d", idx))
	s.Tr.Emit(sim.Time(idx), KindDrop, subj, int64(idx), 1)
	return s
}

func TestCollectorExportOrderInvariant(t *testing.T) {
	// Register sources in two different (simulated completion) orders;
	// every export must be byte-identical.
	mk := func(order []int) *Collector {
		c := NewCollector()
		for _, i := range order {
			c.Add(fmt.Sprintf("lat/%04d", i), fillSink(i))
		}
		return c
	}
	fwd := mk([]int{0, 1, 2, 3})
	rev := mk([]int{3, 1, 0, 2})
	if !bytes.Equal(fwd.ExportMetricsJSON(), rev.ExportMetricsJSON()) {
		t.Fatal("metrics export depends on registration order")
	}
	if !bytes.Equal(fwd.ExportTraceJSONL(), rev.ExportTraceJSONL()) {
		t.Fatal("JSONL trace export depends on registration order")
	}
	if !bytes.Equal(fwd.ExportTraceBinary(), rev.ExportTraceBinary()) {
		t.Fatal("binary trace export depends on registration order")
	}
	// Zero-padded names sort numerically.
	names := []string{"lat/0010", "lat/0002", "lat/0001"}
	sort.Strings(names)
	if names[0] != "lat/0001" || names[2] != "lat/0010" {
		t.Fatal("zero-padded source names must sort in shard order")
	}
}

func TestCollectorConcurrentAdd(t *testing.T) {
	c := NewCollector()
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				c.Add(fmt.Sprintf("s/%02d/%02d", w, i), fillSink(i))
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if got := len(c.sorted()); got != 400 {
		t.Fatalf("sources = %d, want 400", got)
	}
}

func TestSnapshotFlattening(t *testing.T) {
	c := NewCollector()
	c.Add("a", fillSink(4))
	snap := c.Snapshot()
	if snap["n"] != 5 || snap["g.max"] != 4 || snap["h.count"] != 1 || snap["h.sum"] != 4 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestBinaryExportLayout(t *testing.T) {
	c := NewCollector()
	c.Add("src", fillSink(2))
	bin := c.ExportTraceBinary()
	if !bytes.HasPrefix(bin, []byte(binMagic)) {
		t.Fatalf("binary export missing magic: % x", bin[:8])
	}
	// magic(4) + len("src")(4)+3 + nsubj(4) + len("shard2")(4)+6 + nevents(4) + 1 record(29)
	want := 4 + 4 + 3 + 4 + 4 + 6 + 4 + 29
	if len(bin) != want {
		t.Fatalf("binary export length = %d, want %d", len(bin), want)
	}
}

func TestDefaultBoundsAscending(t *testing.T) {
	for _, bounds := range [][]int64{DurationBounds(), SizeBounds()} {
		if len(bounds) == 0 {
			t.Fatal("empty default bounds")
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("bounds not ascending at %d: %v", i, bounds)
			}
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(1 << 12)
	s := tr.Subject("l")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(sim.Time(i), KindDrop, s, int64(i), 64)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("h", DurationBounds())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 1000)
	}
}

// TestHistogramObserveN holds the bulk form to its definition — exactly
// the state n repeated Observes leave, across bucket boundaries and the
// overflow bucket — and keeps it safe on a nil receiver.
func TestHistogramObserveN(t *testing.T) {
	r := NewRegistry()
	bulk := r.Histogram("bulk", DurationBounds())
	loop := r.Histogram("loop", DurationBounds())
	for _, c := range []struct {
		v int64
		n uint64
	}{{int64(time.Millisecond), 5}, {1, 3}, {int64(500 * time.Second), 2}, {0, 4}} {
		bulk.ObserveN(c.v, c.n)
		for i := uint64(0); i < c.n; i++ {
			loop.Observe(c.v)
		}
	}
	bulk.ObserveN(7, 0)
	if bulk.total != loop.total || bulk.sum != loop.sum {
		t.Errorf("bulk total/sum = %d/%d, looped = %d/%d",
			bulk.total, bulk.sum, loop.total, loop.sum)
	}
	if !reflect.DeepEqual(bulk.counts, loop.counts) {
		t.Errorf("bucket counts diverge:\n bulk %v\n loop %v", bulk.counts, loop.counts)
	}

	var nilH *Histogram
	nilH.ObserveN(1, 10) // must not panic
}

// TestHistogramDrainInto checks the per-worker scratch handoff the
// partitioned fleet campaign uses: a standalone (unregistered) histogram
// drains its buckets into a registered one and resets, nil on either
// side is a no-op, and a layout mismatch panics.
func TestHistogramDrainInto(t *testing.T) {
	r := NewRegistry()
	dst := r.Histogram("dst", DurationBounds())
	want := r.Histogram("want", DurationBounds())
	scratch := NewHistogram(DurationBounds())
	for _, v := range []int64{1, int64(time.Millisecond), int64(500 * time.Second), 0, 42} {
		scratch.Observe(v)
		want.Observe(v)
	}
	scratch.DrainInto(dst)
	if dst.total != want.total || dst.sum != want.sum || !reflect.DeepEqual(dst.counts, want.counts) {
		t.Errorf("drained histogram differs: total %d/%d sum %d/%d", dst.total, want.total, dst.sum, want.sum)
	}
	if scratch.total != 0 || scratch.sum != 0 {
		t.Error("scratch not reset after DrainInto")
	}
	scratch.DrainInto(dst) // empty drain: no-op
	if dst.total != want.total {
		t.Error("empty drain changed the destination")
	}

	var nilH *Histogram
	nilH.DrainInto(dst) // must not panic
	scratch.DrainInto(nilH)

	scratch.Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("draining into a different bucket layout did not panic")
		}
	}()
	scratch.DrainInto(r.Histogram("sizes", SizeBounds()))
}
