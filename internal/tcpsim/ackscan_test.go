package tcpsim

import (
	"slices"
	"testing"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// referenceProcessAck is processAck as it was before the loss scan
// searched the scoreboard only for records an ACK can have changed: every
// overtaken record is looked up on every ACK. FuzzAckScan holds the
// production scan to it.
func referenceProcessAck(c *Conn, seg *Segment, now sim.Time) {
	if seg.Flags&FlagACK == 0 {
		return
	}
	if seg.Echo != 0 {
		c.rtt.UpdateAt(now, now.Sub(seg.Echo), 0)
	}
	if seg.Ack > c.sndUna {
		c.sndUna = seg.Ack
		c.rtoCount = 0
		c.pruneAckedMsgs()
		c.restartRTO()
		if c.OnSendProgress != nil {
			c.OnSendProgress()
		}
	}
	for _, b := range seg.Sack {
		c.sacked.Insert(b.Start, b.End)
	}
	c.sacked.TrimBelow(c.sndUna)
	if c.finSent && c.sndUna >= c.sendEnd+1 && !c.finAcked {
		c.finAcked = true
		c.maybeFinish()
	}

	maxD := seg.Ack
	for _, b := range seg.Sack {
		if b.End > maxD {
			maxD = b.End
		}
	}
	if maxD > c.highestDelivered {
		c.highestDelivered = maxD
	}

	lossDelay := c.rtt.LossDelay()
	lost := c.lost[:0]

	// Drain the in-order queue up to the highest delivered byte.
	for q := c.inflight; q.Len() > 0 && q.Front().end <= c.highestDelivered; {
		if r := q.Pop(); c.delivered(r) {
			c.onRecordAcked(r, now)
		} else {
			c.candidates = append(c.candidates, r)
		}
	}

	kept := c.candidates[:0]
	for _, r := range c.candidates {
		// A retransmission keeps its original sequence numbers, so the
		// sequence-overtaken rule would misfire on it instantly; only
		// the time threshold applies (RACK-style).
		seqLost := !r.retx && c.highestDelivered >= r.end+uint64(3*c.cfg.MSS)
		switch {
		case c.delivered(r):
			c.onRecordAcked(r, now)
		case seqLost, now.Sub(r.sentAt) >= lossDelay:
			lost = append(lost, r)
		default:
			kept = append(kept, r)
		}
	}
	c.candidates, c.lost = kept, lost

	for _, r := range lost {
		c.pipe -= int(r.end - r.start)
		c.Stats.FastRetransmits++
		if c.obs != nil {
			c.obs.fastRetx.Inc()
		}
		start := r.start
		if start < c.sndUna {
			start = c.sndUna
		}
		if start < r.end {
			c.retxQueue.Insert(start, r.end)
		}
		c.ccc.OnCongestionEvent(now, r.sentAt)
	}

	if c.outstanding() == 0 {
		c.rtoTimer.Stop()
	}
}

// recordingCC logs what the loss scan tells the congestion controller, in
// order: bytes of each record acked, send time of each record lost.
type recordingCC struct {
	cc.CongestionController
	acked []int
	lost  []sim.Time
}

func (r *recordingCC) OnPacketAcked(now sim.Time, bytes int, rtt *cc.RTTEstimator) {
	r.acked = append(r.acked, bytes)
	r.CongestionController.OnPacketAcked(now, bytes, rtt)
}

func (r *recordingCC) OnCongestionEvent(now, sentAt sim.Time) {
	r.lost = append(r.lost, sentAt)
	r.CongestionController.OnCongestionEvent(now, sentAt)
}

// scanSide is one established sender the fuzzed ACK stream drives.
type scanSide struct {
	s    *sim.Scheduler
	c    *Conn
	rec  *recordingCC
	sent []txRecord
}

func newScanSide() *scanSide {
	const mss = 1460
	sd := &scanSide{s: sim.NewScheduler(1)}
	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	sd.c = NewConn(ConnParams{
		Sched: sd.s, IsClient: true, Config: cfg,
		Transmit: func(p *netem.Packet) {
			if seg := p.Payload.(*Segment); seg.Len > 0 {
				sd.sent = append(sd.sent, txRecord{start: seg.Seq, end: seg.Seq + uint64(seg.Len), sentAt: sd.s.Now(), retx: seg.Retx})
			}
		},
	})
	sd.rec = &recordingCC{CongestionController: sd.c.ccc}
	sd.c.ccc = sd.rec
	sd.c.Start()
	sd.s.RunFor(50 * time.Millisecond)
	sd.c.HandleSegment(&netem.Packet{Payload: &Segment{Flags: FlagSYN | FlagACK, Wnd: 1 << 24}})
	sd.c.Write(600 * mss)
	return sd
}

// ackFrom decodes one ACK from prog against c's send state: a cumulative
// ACK in [0, sndNxt] (below sndUna now and then, a reordered ACK) and up
// to three SACK blocks ending at or below sndNxt, some on segment
// boundaries, some straddling or below sndUna. Every segment is one a well-formed receiver could have sent
// given reordering, which is the domain where both scans must agree.
func ackFrom(c *Conn, prog []byte) *Segment {
	const mss = 1460
	una, nxt := c.sndUna, c.sndNxt
	seg := &Segment{Flags: FlagACK, Wnd: 1 << 24}
	if a := uint64(prog[0]); a < 240 {
		seg.Ack = una + (nxt-una)*a/512
	} else {
		seg.Ack = una - min(una, (a-240)*mss)
	}
	for i := range int(prog[1] % 4) {
		s, l := uint64(prog[2+2*i]), uint64(prog[3+2*i])
		start := una + (nxt-una)*s/255
		if s&2 != 0 {
			start -= start % mss // on a segment boundary
		}
		if s&1 != 0 {
			start -= min(start, mss) // straddle sndUna or land below it
		}
		end := min(start+(l%16+1)*mss/2, nxt)
		if start < end {
			seg.Sack = append(seg.Sack, SackBlock{Start: start, End: end})
		}
	}
	return seg
}

// FuzzAckScan drives two identical senders with one ACK stream, one
// through processAck and one through referenceProcessAck, and requires
// the same records acked and lost in the same order and the same pipe and
// FastRetransmits after every ACK — and, since both then send alike, the
// same segments on the wire. An op is 9 bytes: a delay, then the ACK —
// its cumulative ACK, a block count and three (start, length) byte pairs,
// of which the count says how many are read (ackFrom).
func FuzzAckScan(f *testing.F) {
	f.Add([]byte{
		10, 20, 2, 80, 3, 160, 5, 0, 0,
		10, 20, 3, 60, 9, 120, 2, 200, 7,
		40, 20, 3, 30, 15, 90, 15, 150, 3,
		255, 250, 1, 3, 15, 0, 0, 0, 0,
		10, 100, 2, 202, 7, 222, 15, 0, 0,
	})
	f.Add([]byte{
		5, 0, 3, 20, 1, 40, 1, 60, 1,
		5, 0, 3, 21, 3, 41, 3, 61, 3,
		5, 0, 3, 22, 5, 42, 5, 62, 5,
		200, 0, 3, 23, 7, 43, 7, 63, 7,
		200, 0, 3, 100, 15, 150, 15, 200, 15,
		30, 245, 2, 10, 2, 90, 4, 0, 0,
		30, 120, 0, 0, 0, 0, 0, 0, 0,
	})
	f.Add([]byte{
		1, 0, 1, 128, 15, 0, 0, 0, 0,
		1, 0, 1, 129, 15, 0, 0, 0, 0,
		1, 0, 2, 130, 15, 162, 15, 0, 0,
		90, 0, 2, 66, 15, 194, 15, 0, 0,
		90, 239, 0, 0, 0, 0, 0, 0, 0,
		90, 0, 3, 10, 1, 50, 1, 250, 9,
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		got, want := newScanSide(), newScanSide()
		for op := 0; len(prog) >= 9; op, prog = op+1, prog[9:] {
			dt := time.Duration(prog[0]) * 4 * time.Millisecond
			got.s.RunFor(dt)
			want.s.RunFor(dt)
			seg := ackFrom(got.c, prog[1:9])
			got.c.processAck(seg, got.s.Now())
			got.c.maybeSend()
			referenceProcessAck(want.c, seg, want.s.Now())
			want.c.maybeSend()

			g, w := got.c, want.c
			switch {
			case !slices.Equal(g.lost, w.lost):
				t.Fatalf("op %d %+v: lost %v, want %v", op, seg, g.lost, w.lost)
			case !slices.Equal(got.rec.acked, want.rec.acked) || !slices.Equal(got.rec.lost, want.rec.lost):
				t.Fatalf("op %d %+v: acked %v lost %v, want %v %v", op, seg, got.rec.acked, got.rec.lost, want.rec.acked, want.rec.lost)
			case g.pipe != w.pipe || g.Stats.FastRetransmits != w.Stats.FastRetransmits:
				t.Fatalf("op %d %+v: pipe %d fast retransmits %d, want %d %d", op, seg, g.pipe, g.Stats.FastRetransmits, w.pipe, w.Stats.FastRetransmits)
			case !slices.Equal(g.candidates, w.candidates):
				t.Fatalf("op %d %+v: candidates %v, want %v", op, seg, g.candidates, w.candidates)
			case g.sndUna != w.sndUna || g.highestDelivered != w.highestDelivered || !slices.Equal(g.sacked.Spans(), w.sacked.Spans()):
				t.Fatalf("op %d %+v: una %d delivered %d sacked %v, want %d %d %v", op, seg,
					g.sndUna, g.highestDelivered, g.sacked.Spans(), w.sndUna, w.highestDelivered, w.sacked.Spans())
			case !slices.Equal(got.sent, want.sent):
				t.Fatalf("op %d %+v: sent %v, want %v", op, seg, got.sent, want.sent)
			}
		}
	})
}
