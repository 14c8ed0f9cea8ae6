package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one call the benchmark makes into a layer. Spans are recorded
// by the benchmark's own code, around the call, never inside the program;
// they stay in memory until the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Iter   int    `json:"iter"`   // iteration id, -1 outside the timed loop
}

// spanRecorder collects spans. A nil recorder records nothing, which is
// what every end-to-end (untraced) run uses. Campaign jobs finish on
// worker goroutines, hence the lock.
type spanRecorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *spanRecorder) begin(name string, parent, iter int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Iter: iter})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap one another
// (campaign jobs on two workers), so the covered part is the union of
// the children's intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}
