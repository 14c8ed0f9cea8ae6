package sim

import (
	"cmp"
	"slices"
)

// Span is the half-open interval [Start, End).
type Span struct {
	Start, End uint64
}

// Ranges is the engine's one interval set: sorted, disjoint, non-touching
// spans of uint64 (byte offsets, packet numbers), merged as they become
// contiguous. Every mutation happens inside one backing array that always
// starts at index 0, so a set reaches its high-water capacity once and
// stops allocating. The zero value is empty.
type Ranges struct {
	spans []Span
}

// Spans returns the spans in ascending order; read, do not keep.
func (b *Ranges) Spans() []Span { return b.spans }

// search returns the index of the first span with End >= x.
func (b *Ranges) search(x uint64) int {
	i, _ := slices.BinarySearchFunc(b.spans, x, func(r Span, x uint64) int { return cmp.Compare(r.End, x) })
	return i
}

// Insert adds [start, end), merging it with every span it overlaps or
// touches. In-order arrival — at or past the start of the last span —
// extends or appends at the tail without a search.
func (b *Ranges) Insert(start, end uint64) {
	if end <= start {
		return
	}
	rs := b.spans
	if n := len(rs); n == 0 || start > rs[n-1].End {
		b.spans = append(rs, Span{start, end})
		return
	} else if last := &rs[n-1]; start >= last.Start {
		last.End = max(last.End, end)
		return
	}
	i := b.search(start)
	j := i // one past the run [i, j) the new span overlaps or touches
	for ; j < len(rs) && rs[j].Start <= end; j++ {
		start = min(start, rs[j].Start)
		end = max(end, rs[j].End)
	}
	if j == i { // touches nothing: open a slot
		rs = append(rs, Span{})
		copy(rs[i+1:], rs[i:])
	} else { // the run collapses into its first slot
		rs = append(rs[:i+1], rs[j:]...)
	}
	rs[i] = Span{start, end}
	b.spans = rs
}

// popFront drops the n lowest spans, copying the rest down.
func (b *Ranges) popFront(n int) {
	b.spans = b.spans[:copy(b.spans, b.spans[n:])]
}

// ContiguousFrom returns the end of the contiguous region starting at
// floor, removing the spans it consumed.
func (b *Ranges) ContiguousFrom(floor uint64) uint64 {
	n := 0
	for ; n < len(b.spans) && b.spans[n].Start <= floor; n++ {
		floor = max(floor, b.spans[n].End)
	}
	if n > 0 {
		b.popFront(n)
	}
	return floor
}

// TrimBelow clips away everything below floor, keeping what lies at and
// above it (unlike ContiguousFrom, which consumes).
func (b *Ranges) TrimBelow(floor uint64) {
	n := 0
	for n < len(b.spans) && b.spans[n].End <= floor {
		n++
	}
	if n > 0 {
		b.popFront(n)
	}
	if len(b.spans) > 0 && b.spans[0].Start < floor {
		b.spans[0].Start = floor
	}
}

// Covered reports whether [start, end) lies inside one span.
func (b *Ranges) Covered(start, end uint64) bool {
	i := b.search(end)
	return i < len(b.spans) && b.spans[i].Start <= start
}
