package tcpsim

import (
	"slices"
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// The receiver reports its lowest-lying SACK blocks, ascending from the
// cumulative ACK, at most 8 of them.
func TestBlocksAscendingNearestAckFirst(t *testing.T) {
	s := sim.NewScheduler(1)
	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	var last []SackBlock
	c := NewConn(ConnParams{
		Sched: s, IsClient: true, Config: cfg,
		Transmit: func(p *netem.Packet) {
			if seg := p.Payload.(*Segment); seg.Flags == FlagACK && seg.Len == 0 {
				last = append(last[:0], seg.Sack...)
			}
		},
	})
	c.Start()
	c.HandleSegment(&netem.Packet{Payload: &Segment{Flags: FlagSYN | FlagACK, Wnd: 1 << 20}})
	var want []SackBlock
	for i := uint64(10); i > 0; i-- { // highest island first: every arrival is out of order
		c.HandleSegment(&netem.Packet{Payload: &Segment{Flags: FlagACK, Seq: 200 * i, Len: 100, Wnd: 1 << 20}})
		want = append([]SackBlock{{Start: 200 * i, End: 200*i + 100}}, want...)
		if !slices.Equal(last, want[:min(8, len(want))]) {
			t.Fatalf("after %d islands: SACK %v, want %v", len(want), last, want[:min(8, len(want))])
		}
	}
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
		if !slices.Equal(c.retxQueue.Spans(), retxQ) {
			t.Errorf("%s: retxQueue %v, want %v", when, c.retxQueue.Spans(), retxQ)
		}
		if !slices.Equal(c.sacked.Spans(), sacked) {
			t.Errorf("%s: sacked %v, want %v", when, c.sacked.Spans(), sacked)
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
	holes := []SackBlock{{Start: 4 * mss, End: 6 * mss}, {Start: 7 * mss, End: 9 * mss}, {Start: 11 * mss, End: 12 * mss}}
	feed(&Segment{Flags: FlagACK, Ack: 2 * mss, Sack: holes})
	check("recovery", 2*mss, 17374, nil, holes,
		append(retx(2*mss, 3*mss, 6*mss),
			tx{14 * mss, mss, false}, tx{15 * mss, mss, false}, tx{16 * mss, mss, false},
			tx{17 * mss, mss, false}, tx{18 * mss, 1314, false}))

	untilRTO(1)
	check("first timeout", 2*mss, 9*mss, []SackBlock{{Start: 16 * mss, End: 27594}}, holes,
		retx(2*mss, 3*mss, 6*mss, 9*mss, 10*mss, 12*mss, 13*mss, 14*mss, 15*mss))

	// A partial ACK between timeouts keeps recovery going.
	holes = append(holes, SackBlock{Start: 13 * mss, End: 14 * mss})
	feed(&Segment{Flags: FlagACK, Ack: 3 * mss, Sack: holes})
	check("partial ack", 3*mss, 9*mss, []SackBlock{{Start: 18 * mss, End: 27594}}, holes, retx(16*mss, 17*mss))

	untilRTO(2)
	check("second timeout", 3*mss, 6*mss, []SackBlock{{Start: 15 * mss, End: 27594}}, holes,
		retx(3*mss, 6*mss, 9*mss, 10*mss, 12*mss, 14*mss))

	untilRTO(3)
	check("third timeout", 3*mss, 5*mss, []SackBlock{{Start: 14 * mss, End: 27594}}, holes,
		retx(3*mss, 6*mss, 9*mss, 10*mss, 12*mss))
}
