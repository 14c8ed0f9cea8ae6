package tcpsim

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// TestByteRangesAgainstReference checks insert/covered/contiguousFrom/
// trimBelow against a brute-force bitmap model.
func TestByteRangesAgainstReference(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 200; trial++ {
		var b byteRanges
		const space = 400
		ref := make([]bool, space)
		for op := 0; op < 120; op++ {
			start := uint64(r.IntN(space - 1))
			end := start + uint64(1+r.IntN(40))
			if end > space {
				end = space
			}
			b.insert(start, end)
			for i := start; i < end; i++ {
				ref[i] = true
			}
		}
		// Invariants: sorted, disjoint, non-touching.
		for i, rg := range b.ranges {
			if rg.Start >= rg.End {
				t.Fatalf("trial %d: empty range %+v", trial, rg)
			}
			if i > 0 && rg.Start <= b.ranges[i-1].End {
				t.Fatalf("trial %d: ranges touch: %+v %+v", trial, b.ranges[i-1], rg)
			}
		}
		// covered() matches the bitmap for random probes.
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
			if got := b.covered(s, e); got != want {
				t.Fatalf("trial %d: covered(%d,%d)=%v want %v (ranges %v)", trial, s, e, got, want, b.ranges)
			}
		}
		// contiguousFrom from a random floor equals the bitmap run end.
		floor := uint64(r.IntN(space))
		wantEnd := floor
		for wantEnd < space && ref[wantEnd] {
			wantEnd++
		}
		cp := byteRanges{ranges: append([]SackBlock(nil), b.ranges...)}
		if got := cp.contiguousFrom(floor); got != wantEnd {
			t.Fatalf("trial %d: contiguousFrom(%d)=%d want %d", trial, floor, got, wantEnd)
		}
		// trimBelow drops everything under the floor and nothing above.
		tr := byteRanges{ranges: append([]SackBlock(nil), b.ranges...)}
		tr.trimBelow(floor)
		for i := uint64(0); i < space; i++ {
			want := ref[i] && i >= floor
			if got := tr.covered(i, i+1); got != want {
				t.Fatalf("trial %d: after trimBelow(%d), covered(%d)=%v want %v", trial, floor, i, got, want)
			}
		}
	}
}

func TestByteRangesMaxEnd(t *testing.T) {
	var b byteRanges
	if b.maxEnd(7) != 7 {
		t.Error("empty maxEnd should return floor")
	}
	b.insert(10, 20)
	b.insert(40, 50)
	if b.maxEnd(0) != 50 {
		t.Errorf("maxEnd = %d", b.maxEnd(0))
	}
	if b.maxEnd(60) != 60 {
		t.Errorf("maxEnd with higher floor = %d", b.maxEnd(60))
	}
}

func TestBlocksAscendingNearestAckFirst(t *testing.T) {
	var b byteRanges
	b.insert(100, 200)
	b.insert(300, 400)
	b.insert(500, 600)
	got := b.appendBlocks(nil, 2)
	if len(got) != 2 || got[0] != (SackBlock{100, 200}) || got[1] != (SackBlock{300, 400}) {
		t.Fatalf("blocks = %v", got)
	}
	if n := len(b.appendBlocks(nil, 10)); n != 3 {
		t.Fatalf("blocks(10) = %d entries", n)
	}
}

// oracleRanges is the scoreboard as it stood before it went in place: a
// fresh slice per insert, consumed ranges walked off the front of the
// backing array, a linear covered scan. The differential tests below hold
// byteRanges to it step by step.
type oracleRanges struct {
	ranges []SackBlock
}

func (b *oracleRanges) insert(start, end uint64) {
	if end <= start {
		return
	}
	out := make([]SackBlock, 0, len(b.ranges)+1)
	placed := false
	for _, r := range b.ranges {
		switch {
		case r.End < start: // strictly before, no touch
			out = append(out, r)
		case end < r.Start: // strictly after, no touch
			if !placed {
				out = append(out, SackBlock{start, end})
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
		out = append(out, SackBlock{start, end})
	}
	b.ranges = out
}

func (b *oracleRanges) contiguousFrom(floor uint64) uint64 {
	for len(b.ranges) > 0 && b.ranges[0].Start <= floor {
		if b.ranges[0].End > floor {
			floor = b.ranges[0].End
		}
		b.ranges = b.ranges[1:]
	}
	return floor
}

func (b *oracleRanges) trimBelow(floor uint64) {
	var out []SackBlock
	for _, r := range b.ranges {
		if r.End <= floor {
			continue
		}
		if r.Start < floor {
			r.Start = floor
		}
		out = append(out, r)
	}
	b.ranges = out
}

func (b *oracleRanges) covered(start, end uint64) bool {
	for _, r := range b.ranges {
		if start >= r.Start && end <= r.End {
			return true
		}
	}
	return false
}

func (b *oracleRanges) maxEnd(floor uint64) uint64 {
	if n := len(b.ranges); n > 0 && b.ranges[n-1].End > floor {
		return b.ranges[n-1].End
	}
	return floor
}

// rangesDiff applies one operation to both implementations and reports
// the first disagreement: in the operation's result, or in the set it
// leaves behind.
type rangesDiff struct {
	got  byteRanges
	want oracleRanges
	sack []SackBlock // appendBlocks destination, reused like sendAck's
}

func (d *rangesDiff) step(t testing.TB, op uint8, a, b uint64) {
	t.Helper()
	if a > b {
		a, b = b, a
	}
	var got, want any
	switch op % 7 {
	case 0, 1: // insert twice as often as the rest: the set must grow
		d.got.insert(a, b)
		d.want.insert(a, b)
	case 2:
		got, want = d.got.contiguousFrom(a), d.want.contiguousFrom(a)
	case 3:
		d.got.trimBelow(a)
		d.want.trimBelow(a)
	case 4:
		got, want = d.got.covered(a, b), d.want.covered(a, b)
	case 5:
		n := int(b % 10)
		d.sack = d.got.appendBlocks(d.sack, n)
		got, want = len(d.sack), min(n, len(d.want.ranges))
		for i := range d.sack {
			if d.sack[i] != d.want.ranges[i] {
				t.Fatalf("appendBlocks(%d)[%d] = %v, want %v", n, i, d.sack[i], d.want.ranges[i])
			}
		}
	case 6:
		got, want = d.got.maxEnd(a), d.want.maxEnd(a)
	}
	if got != want {
		t.Fatalf("op %d (%d, %d) = %v, want %v", op%7, a, b, got, want)
	}
	if len(d.got.ranges) != len(d.want.ranges) {
		t.Fatalf("after op %d (%d, %d): ranges %v, want %v", op%7, a, b, d.got.ranges, d.want.ranges)
	}
	for i, r := range d.got.ranges {
		if r != d.want.ranges[i] {
			t.Fatalf("after op %d (%d, %d): ranges %v, want %v", op%7, a, b, d.got.ranges, d.want.ranges)
		}
	}
}

// The cases the in-place insert has to get right by construction, spelled
// out: each leaves exactly what the fresh-slice insert left.
func TestByteRangesInPlaceCases(t *testing.T) {
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
		"empty-after-consume": {{0, 10, 20}, {0, 30, 40}, {2, 10, 0}, {2, 30, 0}, {0, 5, 8}, {2, 0, 0}},
		"consume-then-grow":   {{0, 0, 10}, {2, 0, 0}, {0, 10, 20}, {0, 40, 50}, {2, 10, 0}, {0, 20, 30}},
		"trim-splits-head":    {{0, 10, 20}, {0, 30, 40}, {3, 15, 0}, {3, 35, 0}, {3, 40, 0}},
		"blocks-and-maxend":   {{0, 10, 20}, {0, 30, 40}, {0, 50, 60}, {5, 0, 2}, {5, 0, 9}, {6, 0, 0}, {6, 99, 0}},
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

// Seeded random operation sequences over a small sequence space, so that
// touches, swallows and head/tail placements are all frequent.
func TestByteRangesMatchFreshSliceOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 4))
	for trial := 0; trial < 300; trial++ {
		var d rangesDiff
		space := uint64(50 + r.IntN(2000))
		for i := 0; i < 400; i++ {
			a := r.Uint64N(space)
			d.step(t, uint8(r.IntN(7)), a, a+r.Uint64N(1+space/8))
		}
	}
}

// A set that was filled and drained keeps its backing array: the next
// fill allocates nothing.
func TestByteRangesReuseBackingArray(t *testing.T) {
	var b byteRanges
	fill := func() {
		for i := uint64(0); i < 64; i++ {
			b.insert(10+20*i, 20+20*i)
		}
		b.insert(0, 10) // the hole below the first range closes
		for i := uint64(0); i < 64; i++ {
			b.insert(20+20*i, 30+20*i)
		}
		if got := b.contiguousFrom(0); got != 10+20*64 || len(b.ranges) != 0 {
			t.Fatalf("contiguousFrom = %d, %d ranges left", got, len(b.ranges))
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("%v allocations per fill/drain cycle after the first", allocs)
	}
}

func FuzzByteRanges(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 30, 40, 0, 20, 30, 2, 10, 0})
	f.Add([]byte{0, 10, 20, 0, 30, 40, 0, 50, 60, 0, 5, 70, 3, 33, 0, 5, 0, 9})
	f.Add([]byte{1, 200, 255, 1, 0, 1, 4, 0, 255, 6, 7, 0, 2, 0, 0, 2, 200, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var d rangesDiff
		for ; len(prog) >= 3; prog = prog[3:] {
			d.step(t, prog[0], uint64(prog[1]), uint64(prog[2]))
		}
	})
}

// A retransmission timeout that fires while SACK recovery is under way
// rebuilds the retransmission queue from the holes of the scoreboard — on
// the second and third timeout into a queue that still holds the
// cwnd-limited tail of the previous one, which the rebuilt tail swallows.
// Queue contents, scoreboard, pipe and the retransmissions each timeout
// releases are pinned to what the fresh-slice scoreboard and the pointer
// in-flight queue produced for the same ACK sequence.
func TestRTODuringRecoveryRequeuesHoles(t *testing.T) {
	const mss = 1460
	type tx struct {
		seq  uint64
		n    int
		retx bool
	}
	s := sim.NewScheduler(1)
	var sent []tx
	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	c := NewConn(ConnParams{
		Sched: s, IsClient: true, Config: cfg,
		Transmit: func(p *netem.Packet) {
			if seg := p.Payload.(*Segment); seg.Len > 0 {
				sent = append(sent, tx{seg.Seq, seg.Len, seg.Retx})
			}
		},
	})
	feed := func(seg *Segment) {
		seg.Wnd = 1 << 20
		c.HandleSegment(&netem.Packet{Payload: seg})
	}
	retx := func(seqs ...uint64) []tx {
		out := make([]tx, len(seqs))
		for i, q := range seqs {
			out[i] = tx{q, mss, true}
		}
		return out
	}
	check := func(when string, una uint64, pipe int, retxQ, sacked []SackBlock, wantSent []tx) {
		t.Helper()
		if c.sndUna != una || c.pipe != pipe {
			t.Errorf("%s: snd.una %d pipe %d, want %d %d", when, c.sndUna, c.pipe, una, pipe)
		}
		if !slices.Equal(c.retxQueue.ranges, retxQ) {
			t.Errorf("%s: retxQueue %v, want %v", when, c.retxQueue.ranges, retxQ)
		}
		if !slices.Equal(c.sacked.ranges, sacked) {
			t.Errorf("%s: sacked %v, want %v", when, c.sacked.ranges, sacked)
		}
		if !slices.Equal(sent, wantSent) {
			t.Errorf("%s: sent %v, want %v", when, sent, wantSent)
		}
		sent = sent[:0]
	}
	untilRTO := func(n uint64) {
		for c.Stats.RTOs < n {
			s.RunFor(time.Millisecond)
		}
	}

	c.Start()
	s.RunFor(50 * time.Millisecond)
	feed(&Segment{Flags: FlagSYN | FlagACK})
	c.Write(60 * mss)
	s.RunFor(50 * time.Millisecond)
	feed(&Segment{Flags: FlagACK, Ack: 2 * mss})
	s.RunFor(10 * time.Millisecond)
	sent = sent[:0]

	// Three SACKed islands: the two segments below the first are lost by
	// the sequence rule, the hole at 6*mss too; recovery retransmits them
	// and, the window having room, goes on with new data.
	holes := []SackBlock{{4 * mss, 6 * mss}, {7 * mss, 9 * mss}, {11 * mss, 12 * mss}}
	feed(&Segment{Flags: FlagACK, Ack: 2 * mss, Sack: holes})
	check("recovery", 2*mss, 17374, nil, holes,
		append(retx(2*mss, 3*mss, 6*mss),
			tx{14 * mss, mss, false}, tx{15 * mss, mss, false}, tx{16 * mss, mss, false},
			tx{17 * mss, mss, false}, tx{18 * mss, 1314, false}))

	untilRTO(1)
	check("first timeout", 2*mss, 9*mss, []SackBlock{{16 * mss, 27594}}, holes,
		retx(2*mss, 3*mss, 6*mss, 9*mss, 10*mss, 12*mss, 13*mss, 14*mss, 15*mss))

	// A partial ACK between timeouts keeps recovery going.
	holes = append(holes, SackBlock{13 * mss, 14 * mss})
	feed(&Segment{Flags: FlagACK, Ack: 3 * mss, Sack: holes})
	check("partial ack", 3*mss, 9*mss, []SackBlock{{18 * mss, 27594}}, holes, retx(16*mss, 17*mss))

	untilRTO(2)
	check("second timeout", 3*mss, 6*mss, []SackBlock{{15 * mss, 27594}}, holes,
		retx(3*mss, 6*mss, 9*mss, 10*mss, 12*mss, 14*mss))

	untilRTO(3)
	check("third timeout", 3*mss, 5*mss, []SackBlock{{14 * mss, 27594}}, holes,
		retx(3*mss, 6*mss, 9*mss, 10*mss, 12*mss))
}
