package sim

import (
	"math/rand/v2"
	"testing"
)

// TestRangesAgainstReference checks Insert/Covered/ContiguousFrom/TrimBelow
// against a brute-force bitmap model.
func TestRangesAgainstReference(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 200; trial++ {
		var b Ranges
		const space = 400
		ref := make([]bool, space)
		for op := 0; op < 120; op++ {
			start := uint64(r.IntN(space - 1))
			end := start + uint64(1+r.IntN(40))
			if end > space {
				end = space
			}
			b.Insert(start, end)
			for i := start; i < end; i++ {
				ref[i] = true
			}
		}
		// Invariants: sorted, disjoint, non-touching.
		for i, rg := range b.spans {
			if rg.Start >= rg.End {
				t.Fatalf("trial %d: empty span %+v", trial, rg)
			}
			if i > 0 && rg.Start <= b.spans[i-1].End {
				t.Fatalf("trial %d: spans touch: %+v %+v", trial, b.spans[i-1], rg)
			}
		}
		// Covered matches the bitmap for random probes.
		for probe := 0; probe < 100; probe++ {
			s := uint64(r.IntN(space - 1))
			e := s + uint64(1+r.IntN(30))
			if e > space {
				e = space
			}
			want := true
			for i := s; i < e; i++ {
				if !ref[i] {
					want = false
					break
				}
			}
			if got := b.Covered(s, e); got != want {
				t.Fatalf("trial %d: Covered(%d,%d)=%v want %v (spans %v)", trial, s, e, got, want, b.spans)
			}
		}
		// ContiguousFrom from a random floor equals the bitmap run end.
		floor := uint64(r.IntN(space))
		wantEnd := floor
		for wantEnd < space && ref[wantEnd] {
			wantEnd++
		}
		cp := Ranges{spans: append([]Span(nil), b.spans...)}
		if got := cp.ContiguousFrom(floor); got != wantEnd {
			t.Fatalf("trial %d: ContiguousFrom(%d)=%d want %d", trial, floor, got, wantEnd)
		}
		// TrimBelow drops everything under the floor and nothing above.
		tr := Ranges{spans: append([]Span(nil), b.spans...)}
		tr.TrimBelow(floor)
		for i := uint64(0); i < space; i++ {
			want := ref[i] && i >= floor
			if got := tr.Covered(i, i+1); got != want {
				t.Fatalf("trial %d: after TrimBelow(%d), Covered(%d)=%v want %v", trial, floor, i, got, want)
			}
		}
	}
}

func TestRangesInsertMerge(t *testing.T) {
	var b Ranges
	b.Insert(10, 20)
	b.Insert(30, 40)
	b.Insert(20, 30) // bridges
	if len(b.spans) != 1 || b.spans[0] != (Span{10, 40}) {
		t.Fatalf("spans = %v", b.spans)
	}
	b.Insert(0, 5)
	if len(b.spans) != 2 {
		t.Fatalf("spans = %v", b.spans)
	}
	if !b.Covered(12, 35) || b.Covered(4, 11) {
		t.Error("Covered wrong")
	}
	if got := b.ContiguousFrom(0); got != 5 {
		t.Errorf("ContiguousFrom(0) = %d", got)
	}
	if got := b.ContiguousFrom(10); got != 40 {
		t.Errorf("ContiguousFrom(10) = %d", got)
	}
	if len(b.spans) != 0 {
		t.Errorf("consumed spans remain: %v", b.spans)
	}
}

func TestRangesOverlaps(t *testing.T) {
	var b Ranges
	b.Insert(0, 100)
	b.Insert(50, 60) // fully inside
	if len(b.spans) != 1 || b.spans[0] != (Span{0, 100}) {
		t.Fatalf("spans = %v", b.spans)
	}
	b.Insert(90, 150) // extends
	if b.spans[0] != (Span{0, 150}) {
		t.Fatalf("spans = %v", b.spans)
	}
	b.Insert(200, 200) // empty, ignored
	if len(b.spans) != 1 {
		t.Fatalf("empty insert changed spans: %v", b.spans)
	}
}

// oracleRanges is the set as it stood before it went in place: a fresh
// slice per insert, consumed spans walked off the front of the backing
// array, a linear covered scan. The differential tests below hold Ranges to
// it step by step.
type oracleRanges struct {
	spans []Span
}

func (b *oracleRanges) insert(start, end uint64) {
	if end <= start {
		return
	}
	out := make([]Span, 0, len(b.spans)+1)
	placed := false
	for _, r := range b.spans {
		switch {
		case r.End < start: // strictly before, no touch
			out = append(out, r)
		case end < r.Start: // strictly after, no touch
			if !placed {
				out = append(out, Span{start, end})
				placed = true
			}
			out = append(out, r)
		default: // overlap or touch: merge
			if r.Start < start {
				start = r.Start
			}
			if r.End > end {
				end = r.End
			}
		}
	}
	if !placed {
		out = append(out, Span{start, end})
	}
	b.spans = out
}

func (b *oracleRanges) contiguousFrom(floor uint64) uint64 {
	for len(b.spans) > 0 && b.spans[0].Start <= floor {
		if b.spans[0].End > floor {
			floor = b.spans[0].End
		}
		b.spans = b.spans[1:]
	}
	return floor
}

func (b *oracleRanges) trimBelow(floor uint64) {
	var out []Span
	for _, r := range b.spans {
		if r.End <= floor {
			continue
		}
		if r.Start < floor {
			r.Start = floor
		}
		out = append(out, r)
	}
	b.spans = out
}

func (b *oracleRanges) covered(start, end uint64) bool {
	for _, r := range b.spans {
		if start >= r.Start && end <= r.End {
			return true
		}
	}
	return false
}

// rangesDiff applies one operation to both implementations and reports
// the first disagreement: in the operation's result, or in the set it
// leaves behind.
type rangesDiff struct {
	got  Ranges
	want oracleRanges
}

func (d *rangesDiff) step(t testing.TB, op uint8, a, b uint64) {
	t.Helper()
	if a > b {
		a, b = b, a
	}
	var got, want any
	switch op % 6 {
	case 0, 1: // insert twice as often as the rest: the set must grow
		d.got.Insert(a, b)
		d.want.insert(a, b)
	case 2: // one packet number, the received-packet set's insert
		d.got.Insert(a, a+1)
		d.want.insert(a, a+1)
	case 3:
		got, want = d.got.ContiguousFrom(a), d.want.contiguousFrom(a)
	case 4:
		d.got.TrimBelow(a)
		d.want.trimBelow(a)
	case 5:
		got, want = d.got.Covered(a, b), d.want.covered(a, b)
	}
	if got != want {
		t.Fatalf("op %d (%d, %d) = %v, want %v", op%6, a, b, got, want)
	}
	if len(d.got.spans) != len(d.want.spans) {
		t.Fatalf("after op %d (%d, %d): spans %v, want %v", op%6, a, b, d.got.spans, d.want.spans)
	}
	for i, r := range d.got.spans {
		if r != d.want.spans[i] {
			t.Fatalf("after op %d (%d, %d): spans %v, want %v", op%6, a, b, d.got.spans, d.want.spans)
		}
	}
}

// The cases the in-place insert has to get right by construction, spelled
// out: each leaves exactly what the fresh-slice insert left.
func TestRangesInPlaceCases(t *testing.T) {
	type op struct {
		op   uint8
		a, b uint64
	}
	for name, ops := range map[string][]op{
		"touch-merge":         {{0, 10, 20}, {0, 30, 40}, {0, 20, 30}},
		"touch-left-only":     {{0, 10, 20}, {0, 30, 40}, {0, 20, 25}},
		"touch-right-only":    {{0, 10, 20}, {0, 30, 40}, {0, 25, 30}},
		"full-swallow":        {{0, 10, 20}, {0, 30, 40}, {0, 50, 60}, {0, 5, 70}},
		"swallow-middle":      {{0, 10, 20}, {0, 30, 40}, {0, 50, 60}, {0, 70, 80}, {0, 25, 65}},
		"insert-at-head":      {{0, 30, 40}, {0, 50, 60}, {0, 10, 20}},
		"insert-at-tail":      {{0, 10, 20}, {0, 30, 40}, {0, 50, 60}},
		"insert-mid-gap":      {{0, 10, 20}, {0, 50, 60}, {0, 30, 40}},
		"inside-existing":     {{0, 10, 40}, {0, 20, 30}},
		"tail-extend":         {{0, 10, 20}, {0, 15, 30}, {0, 30, 35}, {0, 10, 12}},
		"tail-touch-only":     {{0, 10, 20}, {0, 30, 40}, {0, 40, 50}},
		"points-in-order":     {{2, 7, 0}, {2, 8, 0}, {2, 9, 0}, {2, 11, 0}, {2, 10, 0}},
		"points-behind-tail":  {{2, 20, 0}, {2, 5, 0}, {2, 21, 0}, {2, 6, 0}, {2, 4, 0}, {2, 19, 0}},
		"empty-after-consume": {{0, 10, 20}, {0, 30, 40}, {3, 10, 0}, {3, 30, 0}, {0, 5, 8}, {3, 0, 0}},
		"consume-then-grow":   {{0, 0, 10}, {3, 0, 0}, {0, 10, 20}, {0, 40, 50}, {3, 10, 0}, {0, 20, 30}},
		"trim-splits-head":    {{0, 10, 20}, {0, 30, 40}, {4, 15, 0}, {4, 35, 0}, {4, 40, 0}},
	} {
		var d rangesDiff
		for _, o := range ops {
			d.step(t, o.op, o.a, o.b)
		}
		if t.Failed() {
			t.Fatalf("case %s", name)
		}
	}
}

// Seeded random operation sequences over a small space, so that touches,
// swallows and head/tail placements are all frequent.
func TestRangesMatchFreshSliceOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 4))
	for trial := 0; trial < 300; trial++ {
		var d rangesDiff
		space := uint64(50 + r.IntN(2000))
		for i := 0; i < 400; i++ {
			a := r.Uint64N(space)
			d.step(t, uint8(r.IntN(6)), a, a+r.Uint64N(1+space/8))
		}
	}
}

// A set that was filled and drained keeps its backing array: the next
// fill allocates nothing.
func TestRangesReuseBackingArray(t *testing.T) {
	var b Ranges
	fill := func() {
		for i := uint64(0); i < 64; i++ {
			b.Insert(10+20*i, 20+20*i)
		}
		b.Insert(0, 10) // the hole below the first span closes
		for i := uint64(0); i < 64; i++ {
			b.Insert(20+20*i, 30+20*i)
		}
		if got := b.ContiguousFrom(0); got != 10+20*64 || len(b.spans) != 0 {
			t.Fatalf("ContiguousFrom = %d, %d spans left", got, len(b.spans))
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("%v allocations per fill/drain cycle after the first", allocs)
	}
}

// FuzzRanges runs (op, a, b) byte triples through rangesDiff.
func FuzzRanges(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 30, 40, 0, 20, 30, 3, 10, 0})
	f.Add([]byte{0, 10, 20, 0, 30, 40, 0, 50, 60, 0, 5, 70, 4, 33, 0, 5, 0, 9})
	f.Add([]byte{1, 200, 255, 1, 0, 1, 2, 7, 0, 2, 9, 0, 2, 8, 0, 5, 0, 255, 3, 0, 0, 3, 200, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var d rangesDiff
		for ; len(prog) >= 3; prog = prog[3:] {
			d.step(t, prog[0], uint64(prog[1]), uint64(prog[2]))
		}
	})
}
