package quic

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/netem/netemtest"
	"starlinkperf/internal/sim"
)

// sendOracle is the send buffer the run queue replaced: one []byte that
// every write appends to and every frame is copied out of.
type sendOracle struct {
	buf       []byte
	base, max uint64
	finQueued bool
	finSent   bool
}

func (o *sendOracle) nextFrame(maxBytes int) (off uint64, data []byte, fin, ok bool) {
	if maxBytes <= 0 {
		return 0, nil, false, false
	}
	n := len(o.buf)
	if allowed := o.max - o.base; uint64(n) > allowed {
		n = int(allowed)
	}
	n = min(n, maxBytes)
	fin = o.finQueued && !o.finSent && n == len(o.buf)
	if n == 0 && !fin {
		return 0, nil, false, false
	}
	off, data = o.base, append([]byte(nil), o.buf[:n]...)
	o.buf = o.buf[n:]
	o.base += uint64(n)
	o.finSent = o.finSent || fin
	return off, data, fin, true
}

// The run queue must cut exactly the frames the plain buffer cut —
// (Offset, length, Fin, bytes) — under any interleaving of Write,
// WriteZeroes, Close, flow-control limits and packet budgets, including
// frames that straddle two runs.
func TestSendQueueMatchesByteBufferOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	straddles := 0
	for trial := 0; trial < 300; trial++ {
		s := fakeStream()
		s.maxSendData = uint64(r.IntN(4000))
		o := &sendOracle{max: s.maxSendData}
		for step := 0; step < 200; step++ {
			switch op := r.IntN(10); {
			case op < 2 && !o.finQueued:
				data := make([]byte, r.IntN(3000))
				for i := range data {
					data[i] = byte(1 + r.IntN(255)) // never zero: zeroes mark filler runs below
				}
				s.Write(data)
				o.buf = append(o.buf, data...)
				for i := range data {
					data[i] = 0xEE // the stream must have kept its own copy
				}
			case op < 4 && !o.finQueued:
				n := r.IntN(6000)
				s.WriteZeroes(n)
				o.buf = append(o.buf, make([]byte, n)...)
			case op == 4:
				grow := uint64(r.IntN(5000))
				s.maxSendData += grow
				o.max += grow
			case op == 5 && r.IntN(20) == 0:
				s.Close()
				o.finQueued = true
			default:
				budget := r.IntN(1400)
				if r.IntN(8) == 0 {
					budget = 1 << 20 // larger than the zero page
				}
				off, data, fin, ok := o.nextFrame(budget)
				if got := s.pendingSend(); budget > 0 && got != ok {
					t.Fatalf("trial %d step %d: pendingSend = %v, oracle has a frame = %v", trial, step, got, ok)
				}
				f := s.nextFrame(budget)
				if (f != nil) != ok {
					t.Fatalf("trial %d step %d: frame %v, oracle ok=%v", trial, step, f, ok)
				}
				if f == nil {
					continue
				}
				if f.StreamID != s.id || f.Offset != off || f.Fin != fin || !bytes.Equal(f.Data, data) {
					t.Fatalf("trial %d step %d: got off=%d len=%d fin=%v, want off=%d len=%d fin=%v (bytes equal: %v)",
						trial, step, f.Offset, len(f.Data), f.Fin, off, len(data), fin, bytes.Equal(f.Data, data))
				}
				if bytes.IndexByte(data, 0) >= 0 && bytes.IndexFunc(data, func(r rune) bool { return r != 0 }) >= 0 {
					straddles++
				}
			}
		}
	}
	if straddles == 0 {
		t.Fatal("no frame straddled a Write run and a filler run: the interleaving does not cover the copy path")
	}
	for _, b := range zeroPage {
		if b != 0 {
			t.Fatal("the shared zero page was written to")
		}
	}
}

// reorderPath is a client -> pop -> server path that loses 3 % of the
// packets on the way in and 1 % on the way back, goes down from 300 to
// 900 ms after each transfer starts — long enough to provoke PTO probes —
// and flips the pop between two propagation delays every 50 ms, so late
// packets overtake earlier ones and data waits out of order.
type reorderPath struct {
	s              *sim.Scheduler
	client, pop    *netem.Node
	server         *Endpoint
	fwd, rev       *netem.BernoulliLoss
	slow, fast     *netem.Link
	start          sim.Time
	nextClientPort uint16
	// waited is the most stream segments the last transfer's server held
	// out of order at once, sampled every millisecond.
	waited int
}

func newReorderPath() *reorderPath {
	s := sim.NewScheduler(29)
	nw := netem.New(s)
	p := &reorderPath{
		s:              s,
		client:         nw.NewNode("client", netem.MustParseAddr("10.0.0.1")),
		pop:            nw.NewNode("pop", netem.MustParseAddr("10.0.0.254")),
		fwd:            &netem.BernoulliLoss{P: 0.03},
		rev:            &netem.BernoulliLoss{P: 0.01},
		nextClientPort: 5000,
	}
	a, m := p.client, p.pop
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	am := nw.AddLink(a, m, netem.LinkConfig{
		RateBps: 20e6,
		Loss:    p.fwd,
		Down: func(at sim.Time) bool {
			return at >= p.start.Add(300*time.Millisecond) && at < p.start.Add(900*time.Millisecond)
		},
	})
	p.slow = nw.AddLink(m, b, netem.LinkConfig{Delay: netem.ConstantDelay(6 * time.Millisecond)})
	p.fast = nw.AddLink(m, b, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
	bm := nw.AddLink(b, m, netem.LinkConfig{
		Delay: netem.ConstantDelay(5 * time.Millisecond),
		Loss:  p.rev,
	})
	ma := nw.AddLink(m, a, netem.LinkConfig{RateBps: 20e6})
	a.AddRoute(b.Addr(), am)
	b.AddRoute(a.Addr(), bm)
	m.AddRoute(a.Addr(), ma)
	p.server = NewEndpoint(b, 443)
	return p
}

// transfer moves a patterned payload from a fresh client endpoint and
// returns what the server read plus both connections' counters. The
// outage and the route flips are timed from its start and the loss draws
// restart from the same streams, so every transfer over the path sees the
// same losses and reordering. It closes the client after 30 s and runs
// 30 s more, so every packet reaches its terminal point.
func (p *reorderPath) transfer(t *testing.T) (want, got []byte, client, server Stats) {
	t.Helper()
	s, b := p.s, p.server.node
	p.start = s.Now()
	p.fwd.Rng, p.rev.Rng = s.RNG().Stream("fwd"), s.RNG().Stream("rev")
	p.pop.AddRoute(b.Addr(), p.slow)
	for i := 1; i <= 40; i++ {
		via := p.fast
		if i%2 == 0 {
			via = p.slow
		}
		s.After(time.Duration(i)*50*time.Millisecond, func() { p.pop.AddRoute(b.Addr(), via) })
	}

	cep := NewEndpoint(p.client, p.nextClientPort)
	p.nextClientPort++
	done := false
	var sconn *Connection
	p.server.Listen(Config{}, func(c *Connection) {
		sconn = c
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, fin bool) {
				got = append(got, data...) // copy: data dies with the callback
				done = done || fin
			}
		}
	})
	conn := cep.Dial(b.Addr(), 443, Config{})
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		r := rand.New(rand.NewPCG(1, 1))
		for i := 0; i < 40; i++ {
			piece := make([]byte, 1+r.IntN(20000))
			for j := range piece {
				piece[j] = byte(1 + r.IntN(255))
			}
			st.Write(piece)
			want = append(want, piece...)
			n := r.IntN(30000)
			st.WriteZeroes(n)
			want = append(want, make([]byte, n)...)
		}
		st.Close()
	}
	p.waited = 0
	var watch func()
	watch = func() {
		if sconn != nil {
			for _, st := range sconn.streams {
				p.waited = max(p.waited, len(st.segments)-st.segHead)
			}
		}
		if !done {
			s.After(time.Millisecond, watch)
		}
	}
	watch()
	s.RunFor(30 * time.Second)
	if !done {
		t.Fatalf("transfer incomplete: %d/%d bytes", len(got), len(want))
	}
	conn.Close(0, "done")
	cep.Close()
	s.RunFor(30 * time.Second)
	return want, got, conn.Stats, sconn.Stats
}

// scribbleRun moves the patterned payload over a reorderPath, every
// recycled buffer and struct poisoned or not.
func scribbleRun(t *testing.T, scribble bool) (want, got []byte, client, server Stats) {
	t.Helper()
	p := newReorderPath()
	p.server.pool.scribble = scribble
	return p.transfer(t)
}

// Every wire buffer, frame struct and sent-packet record is overwritten
// the moment it re-enters a freelist. If anything still read one
// afterwards, the payload or the counters would change.
func TestScribbledFreelistsDeliverExactPayload(t *testing.T) {
	want, got, client, server := scribbleRun(t, true)
	if !bytes.Equal(got, want) {
		t.Fatalf("payload corrupted: %d bytes read, %d written, first difference at %d",
			len(got), len(want), firstDiff(got, want))
	}
	if client.PacketsLost == 0 || client.ProbesSent == 0 || client.FramesRetransmitted == 0 {
		t.Fatalf("path too kind to exercise recycling under loss: %+v", client)
	}
	_, plain, clientPlain, serverPlain := scribbleRun(t, false)
	if !bytes.Equal(plain, want) {
		t.Fatal("payload corrupted without scribbling")
	}
	if client != clientPlain || server != serverPlain {
		t.Errorf("scribbling changed the counters:\n client %+v\n   was %+v\n server %+v\n   was %+v",
			client, clientPlain, server, serverPlain)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// The retransmission queue must behave like a slice under any mix of
// push, pop and the pacer's put-back, which pushes the withheld frames
// back to the front last-first so they leave in their original order.
func TestFrameQueueMatchesSliceOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 9))
	var q sim.Ring[Frame]
	var oracle []Frame
	for step := 0; step < 20000; step++ {
		switch op := r.IntN(10); {
		case op < 4:
			f := &MaxDataFrame{Max: uint64(step)}
			q.Push(f)
			oracle = append(oracle, f)
		case op < 8:
			if len(oracle) > 0 {
				if *q.Front() != oracle[0] {
					t.Fatalf("step %d: front %v, want %v", step, *q.Front(), oracle[0])
				}
				q.Pop()
				oracle = oracle[1:]
			}
		default:
			fs := make([]Frame, r.IntN(5))
			for i := range fs {
				fs[i] = &MaxDataFrame{Max: uint64(step*10 + i)}
			}
			for i := len(fs) - 1; i >= 0; i-- {
				q.PushFront(fs[i])
			}
			oracle = append(append([]Frame(nil), fs...), oracle...)
		}
		if q.Len() != len(oracle) {
			t.Fatalf("step %d: len %d, want %d", step, q.Len(), len(oracle))
		}
		for i := range q.Len() {
			if f := *q.At(i); f != oracle[i] {
				t.Fatalf("step %d: element %d is %v, want %v", step, i, f, oracle[i])
			}
		}
	}
}

// A buffer released twice — a datapath bug — is listed once: two later
// draws must never hand out the same buffer.
func TestWireBufferReleasedTwiceIsListedOnce(t *testing.T) {
	nw := netem.New(sim.NewScheduler(1))
	p := wirePoolOf(nw)
	w := p.get()
	w.ReleasePayload()
	w.ReleasePayload()
	p.put(w)
	if a, b := p.get(), p.get(); a == b {
		t.Fatal("one buffer handed out twice")
	}
	if st := p.Stats(); st.Puts != 1 || st.Gets != 3 || st.Hits != 1 {
		t.Errorf("pool %+v, want 3 drawn, 1 returned, 1 reused", st)
	}
}

// A network that inherits another's pools (netem.Network.Inherit) takes
// the listed buffers, sent records and frame structs; a buffer the old
// network still held at the handover (a datagram in flight when its
// campaign stopped) goes home to the old pool when released, never to the
// new one.
func TestInheritedWirePool(t *testing.T) {
	s := sim.NewScheduler(1)
	oldNw, nw := netem.New(s), netem.New(s)
	old := wirePoolOf(oldNw)
	held, listed := old.get(), old.get()
	listed.ReleasePayload()
	sp, sf := new(sentPacket), new(StreamFrame)
	old.sent.Put(sp)
	old.frames.Put(sf)

	nw.Inherit(oldNw)
	held.ReleasePayload()
	if held.owner != old || len(old.All()) != 1 {
		t.Fatal("a buffer held at the handover did not go home to the old pool")
	}
	p := wirePoolOf(nw)
	if p == old || len(old.sent.All())+len(old.frames.All()) != 0 {
		t.Fatal("the old pool was shared or kept its records")
	}
	if got := p.get(); got != listed || got.owner != p {
		t.Error("the new network's first buffer is not the listed one, re-owned")
	}
	if p.sent.Get() != sp || p.frames.Get() != sf {
		t.Error("the listed sent record or frame struct did not move")
	}
	if st := p.Stats(); st != (sim.PoolStats{Gets: 1, Hits: 1}) {
		t.Errorf("new pool counters %+v, want one Get, a Hit", st)
	}
}

// A connection torn down while stream data waits behind a gap leaves every
// pool balanced: the waiting data is held by reference, not in anything
// drawn from a pool. The server never sees the client's tenth datagram
// and closes as soon as data queues behind it.
func TestTeardownWithDataWaitingBalancesPools(t *testing.T) {
	s, cep, sep, srv := pair(t, netem.LinkConfig{RateBps: 20e6, Delay: netem.ConstantDelay(20 * time.Millisecond)})
	n := 0
	sep.node.AttachDevice(netem.DeviceFunc(func(_ *netem.Node, pkt *netem.Packet) bool {
		if pkt.Proto == netem.ProtoUDP && pkt.Src == cep.node.Addr() {
			n++
			return n != 10
		}
		return true
	}))
	var sconn *Connection
	sep.Listen(Config{}, func(c *Connection) { sconn = c })
	conn := cep.Dial(srv, 443, Config{})
	conn.OnEstablished = func() { conn.OpenStream().WriteZeroes(1 << 20) }
	waiting := 0
	var watch func()
	watch = func() {
		if sconn != nil {
			for _, st := range sconn.streams {
				waiting += len(st.segments) - st.segHead
			}
			if waiting > 0 {
				sconn.Close(0, "gone")
				return
			}
		}
		s.After(time.Millisecond, watch)
	}
	watch()
	s.RunFor(30 * time.Second)
	if waiting == 0 {
		t.Fatal("no data waited behind the gap")
	}
	if err := netemtest.CheckPools(cep.node.Network()); err != nil {
		t.Errorf("%d segments waited at teardown: %v", waiting, err)
	}
}

// oneInFlight is a congestion controller whose window is one full
// datagram, so the retransmission queue does not drain within the event
// that fills it and can be observed between events.
type oneInFlight struct{}

func (oneInFlight) Window() int                                     { return MaxDatagramSize }
func (oneInFlight) OnPacketSent(sim.Time, int)                      {}
func (oneInFlight) OnPacketAcked(sim.Time, int, *cc.RTTEstimator)   {}
func (oneInFlight) OnCongestionEvent(now sim.Time, sentAt sim.Time) {}
func (c *Connection) queuedFrames() (out []string, frames []*StreamFrame) {
	for i := range c.retxQueue.Len() {
		f := *c.retxQueue.At(i)
		out = append(out, f.String())
		if sf, ok := f.(*StreamFrame); ok {
			frames = append(frames, sf)
		}
	}
	return out, frames
}

// A data packet and the PTO probe that repeats it are both lost. Both
// copies of the STREAM frame are then requeued and counted — the behaviour
// before frame structs were recycled, pinned here with the values the
// previous implementation produced on this script — and at no point is one
// frame struct owned twice.
func TestPTOProbeAndOriginalBothLost(t *testing.T) {
	s := sim.NewScheduler(31)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	// The forward link dies right after the handshake and swallows the
	// data and FIN packets and the first two probes; the third gets
	// through.
	down := func(at sim.Time) bool {
		return at >= sim.Time(100*time.Millisecond) && at < sim.Time(700*time.Millisecond)
	}
	ab := nw.AddLink(a, b, netem.LinkConfig{Delay: netem.ConstantDelay(10 * time.Millisecond), Down: down})
	ba := nw.AddLink(b, a, netem.LinkConfig{Delay: netem.ConstantDelay(10 * time.Millisecond)})
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)
	cep := NewEndpoint(a, 5000)
	sep := NewEndpoint(b, 443)

	var got []byte
	sep.Listen(Config{}, func(c *Connection) {
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, fin bool) { got = append(got, data...) }
		}
	})
	conn := cep.Dial(b.Addr(), 443, Config{NewCC: func() cc.CongestionController { return oneInFlight{} }})
	payload := bytes.Repeat([]byte("0123456789abcdef"), 75) // 1200 bytes: one packet
	s.After(150*time.Millisecond, func() {
		st := conn.OpenStream()
		st.Write(payload)
		st.Close()
	})

	var log []string
	last, events := conn.Stats, s.Processed
	// Look after every microsecond in which an event ran; events that
	// share one are checked together.
	for s.Now() < sim.Time(5*time.Second) {
		s.RunFor(time.Microsecond)
		if s.Processed == events {
			continue
		}
		events = s.Processed
		checkSingleOwnership(t, conn)
		if conn.Stats.FramesRetransmitted != last.FramesRetransmitted || conn.Stats.ProbesSent != last.ProbesSent {
			queued, _ := conn.queuedFrames()
			log = append(log, fmt.Sprintf("probes=%d lost=%d retx=%d queue=%v",
				conn.Stats.ProbesSent, conn.Stats.PacketsLost, conn.Stats.FramesRetransmitted, queued))
			last = conn.Stats
		}
	}
	want := []string{
		"probes=1 lost=0 retx=0 queue=[]",
		"probes=2 lost=0 retx=0 queue=[]",
		"probes=3 lost=0 retx=0 queue=[]",
		// The ACK of the third probe condemns the data packet, the FIN
		// packet behind it and both earlier probes at once: three copies
		// of the data frame and the FIN are requeued and counted, two
		// packets' worth leave immediately (splitting copies two and
		// three), and the tail of the third waits behind the window.
		"probes=3 lost=4 retx=4 queue=[STREAM(id=0 off=218 len=982 fin=false)]",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("loss script diverged from the previous implementation:\n got %s\nwant %s",
			strings.Join(log, "\n     "), strings.Join(want, "\n     "))
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("server read %d bytes, want the %d written", len(got), len(payload))
	}
	if st := conn.Stats; st.PacketsSent != 12 || st.FramesRetransmitted != 4 {
		t.Errorf("PacketsSent=%d FramesRetransmitted=%d, want 12 and 4", st.PacketsSent, st.FramesRetransmitted)
	}
}

// checkSingleOwnership fails if a STREAM frame struct is reachable from
// two of: an in-flight packet, the retransmission queue, the freelist.
func checkSingleOwnership(t *testing.T, c *Connection) {
	t.Helper()
	owner := make(map[*StreamFrame]string)
	claim := func(f Frame, who string) {
		sf, ok := f.(*StreamFrame)
		if !ok {
			return
		}
		if prev, dup := owner[sf]; dup {
			t.Fatalf("at %v: %v owned by %s and by %s", c.sched.Now(), sf, prev, who)
		}
		owner[sf] = who
	}
	inFlight := append([]*sentPacket(nil), c.ld.candidates...)
	for i := range c.ld.sent.Len() {
		inFlight = append(inFlight, *c.ld.sent.At(i))
	}
	for _, sp := range inFlight {
		for _, f := range sp.frames {
			claim(f, fmt.Sprintf("packet %d", sp.pn))
		}
	}
	_, queued := c.queuedFrames()
	for _, f := range queued {
		claim(f, "the retransmission queue")
	}
	for _, f := range c.ep.pool.frames.All() {
		claim(f, "the freelist")
	}
}

// FuzzParse: an endpoint's reused parser must decode every input exactly
// as the allocating Parse does, whatever it parsed before — stale frames,
// ACK ranges or header fields of the previous packet must not show
// through, its ACK memo must reuse ranges only for the same tail bytes,
// range count and first-range smallest, and a hostile ACK range count must
// fail the same way.
func FuzzParse(f *testing.F) {
	hdr := PacketHeader{ConnID: 7, Number: 3}
	f.Add(Serialize(hdr, []Frame{
		&AckFrame{Ranges: []AckRange{{Smallest: 90, Largest: 120}, {Smallest: 10, Largest: 80}}, AckDelay: time.Millisecond},
		&StreamFrame{StreamID: 4, Offset: 1 << 20, Data: []byte("stream data"), Fin: true},
		&MaxDataFrame{Max: 1 << 30},
	}), Serialize(PacketHeader{Handshake: true, ConnID: 9}, []Frame{
		&CryptoFrame{Offset: 5, Data: []byte("hello")}, &PingFrame{}, &PaddingFrame{Length: 9},
	}))
	f.Add(Serialize(hdr, []Frame{
		&MaxStreamDataFrame{StreamID: 8, Max: 77}, &DataBlockedFrame{Limit: 5},
		&ConnectionCloseFrame{ErrorCode: 1, Reason: "bye"},
	}), Serialize(hdr, []Frame{&AckFrame{Ranges: []AckRange{{Smallest: 1, Largest: 2}}}}))
	// ACK claiming 2^62-1 further ranges, and one whose gap underflows.
	hostile := append(Serialize(hdr, nil), frameTypeAck, 0x20, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	f.Add(hostile, append(Serialize(hdr, nil), frameTypeAck, 0x05, 0x00, 0x01, 0x01, 0x3f, 0x00))
	f.Add([]byte{0x40}, []byte{})
	// The ACK memo: the second ACK repeats the first's tail bytes after a
	// different first-range smallest; extends it by a range; and repeats
	// it with one range fewer, a CONNECTION_CLOSE taking the place of the
	// last range's gap and length.
	ack := func(frames ...Frame) []byte { return Serialize(hdr, frames) }
	twoRanges := &AckFrame{Ranges: []AckRange{{Smallest: 100, Largest: 120}, {Smallest: 50, Largest: 80}}}
	threeRanges := &AckFrame{Ranges: []AckRange{{Smallest: 100, Largest: 130}, {Smallest: 50, Largest: 80}, {Smallest: 10, Largest: 20}}}
	f.Add(ack(twoRanges), ack(&AckFrame{Ranges: []AckRange{{Smallest: 90, Largest: 125}, {Smallest: 40, Largest: 70}}}))
	f.Add(ack(twoRanges), ack(threeRanges))
	f.Add(ack(threeRanges), ack(&AckFrame{Ranges: []AckRange{{Smallest: 100, Largest: 125}, {Smallest: 50, Largest: 80}}},
		&ConnectionCloseFrame{ErrorCode: 10}))

	f.Fuzz(func(t *testing.T, first, second []byte) {
		ps := parser{tails: new(ackTail)}
		for i, in := range [][]byte{first, second, first} {
			want, wantErr := Parse(in)
			got, gotErr := ps.parse(in, false, nil)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("input %d: reused parser error %v, Parse error %v", i, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if got.Header != want.Header || got.Size != want.Size || len(got.Frames) != len(want.Frames) {
				t.Fatalf("input %d: reused parser %v, Parse %v", i, got, want)
			}
			for j := range want.Frames {
				if !reflect.DeepEqual(got.Frames[j], want.Frames[j]) {
					t.Fatalf("input %d frame %d: reused parser %#v, Parse %#v", i, j, got.Frames[j], want.Frames[j])
				}
			}
		}
	})
}

// decodeWire decodes w as the receiving endpoint does, payload refs and
// all, into a parser of its own, so the result outlives the next datagram.
func decodeWire(w *wireBuf) (*Packet, error) { return new(parser).parseWire(w) }

// fuzzBytes hands out a fuzz input a byte at a time, zeros once it ran
// out.
type fuzzBytes []byte

func (fb *fuzzBytes) next() byte {
	if len(*fb) == 0 {
		return 0
	}
	v := (*fb)[0]
	*fb = (*fb)[1:]
	return v
}

func (fb *fuzzBytes) uint(n int) uint64 {
	var v uint64
	for range n {
		v = v<<8 | uint64(fb.next())
	}
	return v
}

// ackRanges returns the ranges of an ACK frame: fresh ones, 1 to 32 of
// them, or prev's as a receiver's next ACK would carry them — the first
// range grown, or a middle range extended by a late packet, the count
// unchanged.
func (fb *fuzzBytes) ackRanges(prev []AckRange) []AckRange {
	mode := fb.next() % 3
	if mode == 0 || len(prev) == 0 {
		n := 1 + int(fb.next()%32)
		cur := 1000 + fb.uint(3)
		var ranges []AckRange
		for range n {
			r := AckRange{Smallest: cur - min(cur, uint64(fb.next()%8)), Largest: cur}
			ranges = append(ranges, r)
			gap := uint64(fb.next() % 4)
			if r.Smallest < gap+2 {
				break
			}
			cur = r.Smallest - 2 - gap
		}
		return ranges
	}
	ranges := slices.Clone(prev)
	if mode == 1 || len(ranges) == 1 {
		ranges[0].Largest += 1 + uint64(fb.next()%5)
		return ranges
	}
	i := 1 + int(fb.next())%(len(ranges)-1)
	switch r := &ranges[i]; {
	case r.Largest+3 < ranges[i-1].Smallest:
		r.Largest++
	case i+1 < len(ranges) && r.Smallest > ranges[i+1].Largest+3:
		r.Smallest--
	case i+1 == len(ranges) && r.Smallest > 0:
		r.Smallest--
	}
	return ranges
}

// frame returns a frame of a kind the input picks; prevAck is the last
// ACK's ranges.
func (fb *fuzzBytes) frame(prevAck *[]AckRange) Frame {
	payload := func(n uint64) []byte {
		if n == 0 {
			return nil
		}
		b := make([]byte, n)
		seed := fb.next()
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	switch fb.next() % 10 {
	case 0, 1:
		return &StreamFrame{StreamID: 4 * fb.uint(1), Offset: fb.uint(4), Data: payload(fb.uint(2) % 1400), Fin: fb.next()&1 == 1}
	case 2:
		return &StreamFrame{StreamID: 4 * fb.uint(1), Offset: fb.uint(4), Fin: true}
	case 3:
		return &CryptoFrame{Offset: fb.uint(2), Data: payload(fb.uint(2) % 1200)}
	case 4, 5:
		*prevAck = fb.ackRanges(*prevAck)
		return &AckFrame{Ranges: slices.Clone(*prevAck), AckDelay: time.Duration(fb.uint(2)) * time.Microsecond}
	case 6:
		return &PingFrame{}
	case 7:
		switch fb.next() % 3 {
		case 0:
			return &MaxDataFrame{Max: fb.uint(4)}
		case 1:
			return &MaxStreamDataFrame{StreamID: fb.uint(1), Max: fb.uint(4)}
		}
		return &DataBlockedFrame{Limit: fb.uint(4)}
	case 8:
		return &ConnectionCloseFrame{ErrorCode: fb.uint(1), Reason: strings.Repeat("x", int(fb.next()%20))}
	}
	return &PaddingFrame{Length: 1 + int(fb.next()%8)}
}

// FuzzWireRefs: a packet encoded into a wire buffer — STREAM and CRYPTO
// payloads by reference, ACK tails reused from the last ACK's while they
// match — and parsed with its refs is the packet Parse(Serialize(...))
// gives, Size included, with every payload the sender's own memory. Up to
// three packets go through one encoder memo and one parser, whose ACK memo
// carries over. A ref one byte short or long, a missing ref or one too
// many fails the parse with errRefMismatch.
func FuzzWireRefs(f *testing.F) {
	r := rand.New(rand.NewPCG(11, 12))
	for range 12 {
		seed := make([]byte, 300)
		for i := range seed {
			seed[i] = byte(r.Uint32())
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	pool := wirePoolOf(netem.New(sim.NewScheduler(1)))
	f.Fuzz(func(t *testing.T, in []byte) {
		fb := fuzzBytes(in)
		ps := parser{tails: new(ackTail)}
		var tails ackTail
		var prevAck []AckRange
		for pn := range 1 + int(fb.next()%3) {
			hdr := PacketHeader{Handshake: fb.next()&1 == 1, ConnID: 7, Number: uint64(pn)}
			frames := make([]Frame, 1+fb.next()%6)
			var payloads [][]byte
			for i := range frames {
				frames[i] = fb.frame(&prevAck)
				switch f := frames[i].(type) {
				case *StreamFrame:
					payloads = append(payloads, f.Data)
				case *CryptoFrame:
					payloads = append(payloads, f.Data)
				}
			}
			flat := Serialize(hdr, frames)
			want, err := Parse(flat)
			if err != nil {
				t.Fatalf("packet %d: Parse(Serialize(...)): %v", pn, err)
			}
			for _, f := range frames {
				if ack, ok := f.(*AckFrame); ok {
					ack.tail = slices.Clone(tails.encode(ack.Ranges)) // good until the next encode
				}
			}
			w := pool.get()
			w.encode(hdr, frames)
			got, err := ps.parseWire(w)
			if err != nil {
				t.Fatalf("packet %d: parse with refs: %v", pn, err)
			}
			if got.Header != want.Header || got.Size != len(flat) || got.Size != want.Size || len(got.Frames) != len(want.Frames) {
				t.Fatalf("packet %d: with refs %v, flat %v (%d bytes)", pn, got, want, len(flat))
			}
			for j := range want.Frames {
				if !reflect.DeepEqual(got.Frames[j], want.Frames[j]) {
					t.Fatalf("packet %d frame %d: with refs %#v, flat %#v", pn, j, got.Frames[j], want.Frames[j])
				}
			}
			var carried [][]byte
			for _, f := range got.Frames {
				switch f := f.(type) {
				case *StreamFrame:
					carried = append(carried, f.Data)
				case *CryptoFrame:
					carried = append(carried, f.Data)
				}
			}
			for j, d := range carried {
				if len(d) > 0 && &d[0] != &payloads[j][0] {
					t.Fatalf("packet %d: payload %d was copied, not carried by reference", pn, j)
				}
			}

			switch k := int(fb.next()); {
			case len(w.refs) == 0 || k%4 == 0:
				w.refs = append(w.refs, []byte{1})
			case k%4 == 1:
				w.refs = w.refs[:len(w.refs)-1]
			case k%4 == 2:
				w.refs[k%len(w.refs)] = w.refs[k%len(w.refs)][1:]
			default:
				r := w.refs[k%len(w.refs)]
				w.refs[k%len(w.refs)] = append(r[:len(r):len(r)], 0)
			}
			if p, err := ps.parseWire(w); err != errRefMismatch {
				t.Fatalf("packet %d: refs that do not match the frames parsed as %v, %v", pn, p, err)
			}
			pool.put(w)
		}
	})
}
