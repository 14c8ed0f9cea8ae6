package quic

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/netem"
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

// scribbleRun moves a patterned payload over a lossy, reordering path with
// an outage long enough to provoke PTO probes, and returns what the server
// read plus both connections' counters.
func scribbleRun(t *testing.T, scribble bool) (want, got []byte, client, server Stats) {
	t.Helper()
	s := sim.NewScheduler(29)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	m := nw.NewNode("pop", netem.MustParseAddr("10.0.0.254"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	outage := func(at sim.Time) bool {
		return at >= sim.Time(300*time.Millisecond) && at < sim.Time(900*time.Millisecond)
	}
	am := nw.AddLink(a, m, netem.LinkConfig{
		RateBps: 20e6,
		Loss:    &netem.BernoulliLoss{P: 0.03, Rng: s.RNG().Stream("fwd")},
		Down:    outage,
	})
	slow := nw.AddLink(m, b, netem.LinkConfig{Delay: netem.ConstantDelay(6 * time.Millisecond)})
	fast := nw.AddLink(m, b, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
	bm := nw.AddLink(b, m, netem.LinkConfig{
		Delay: netem.ConstantDelay(5 * time.Millisecond),
		Loss:  &netem.BernoulliLoss{P: 0.01, Rng: s.RNG().Stream("rev")},
	})
	ma := nw.AddLink(m, a, netem.LinkConfig{RateBps: 20e6})
	a.AddRoute(b.Addr(), am)
	m.AddRoute(b.Addr(), slow)
	b.AddRoute(a.Addr(), bm)
	m.AddRoute(a.Addr(), ma)
	// Flip between the two propagation delays all along: late packets
	// overtake earlier ones, so data waits in reassembly chunks.
	for i := 1; i <= 40; i++ {
		via := fast
		if i%2 == 0 {
			via = slow
		}
		s.After(time.Duration(i)*50*time.Millisecond, func() { m.AddRoute(b.Addr(), via) })
	}

	cep := NewEndpoint(a, 5000)
	sep := NewEndpoint(b, 443)
	cep.scribble, sep.scribble = scribble, scribble

	done := false
	var sconn *Connection
	sep.Listen(DefaultConfig(), func(c *Connection) {
		sconn = c
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, fin bool) {
				got = append(got, data...) // copy: data dies with the callback
				done = done || fin
			}
		}
	})
	conn := cep.Dial(b.Addr(), 443, DefaultConfig())
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
	s.RunFor(60 * time.Second)
	if !done {
		t.Fatalf("scribble=%v: transfer incomplete: %d/%d bytes", scribble, len(got), len(want))
	}
	return want, got, conn.Stats, sconn.Stats
}

// Every wire buffer, reassembly chunk, frame struct and sent-packet record
// is overwritten the moment it re-enters a freelist. If anything still
// read one afterwards, the payload or the counters would change.
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

// The head-indexed retransmission queue must behave like the slice it
// replaced under any mix of push, pop and the pacer's put-back.
func TestFrameQueueMatchesSliceOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 9))
	var q frameQueue
	var oracle []Frame
	for step := 0; step < 20000; step++ {
		switch op := r.IntN(10); {
		case op < 4:
			f := &MaxDataFrame{Max: uint64(step)}
			q.push(f)
			oracle = append(oracle, f)
		case op < 8:
			if len(oracle) > 0 {
				if q.front() != oracle[0] {
					t.Fatalf("step %d: front %v, want %v", step, q.front(), oracle[0])
				}
				q.pop()
				oracle = oracle[1:]
			}
		default:
			fs := make([]Frame, r.IntN(5))
			for i := range fs {
				fs[i] = &MaxDataFrame{Max: uint64(step*10 + i)}
			}
			q.pushFront(fs)
			oracle = append(append([]Frame(nil), fs...), oracle...)
		}
		if q.len() != len(oracle) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(oracle))
		}
		for i, f := range q.buf[q.head:] {
			if f != oracle[i] {
				t.Fatalf("step %d: element %d is %v, want %v", step, i, f, oracle[i])
			}
		}
	}
}

// A device that clones a datagram makes two packets reference one wire
// buffer. The buffer must leave the pool at that moment: recycled at the
// first packet's delivery, it would be rewritten under the second.
func TestClonedDatagramLeavesThePool(t *testing.T) {
	s, cep, sep, srv := pair(t, netem.LinkConfig{RateBps: 20e6, Delay: netem.ConstantDelay(5 * time.Millisecond)})
	cep.scribble, sep.scribble = true, true
	// Every client datagram arrives twice, the copy 3 ms late — by then
	// the sender has long reused whatever the first delivery released.
	sep.Node().AttachDevice(netem.DeviceFunc(func(n *netem.Node, pkt *netem.Packet) bool {
		if pkt.Proto == netem.ProtoUDP && len(pkt.Hops) == 1 {
			cp := pkt.Clone()
			n.Scheduler().After(3*time.Millisecond, func() { n.Send(cp) })
		}
		return true
	}))
	var got []byte
	var sconn *Connection
	sep.Listen(DefaultConfig(), func(c *Connection) {
		sconn = c
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, _ bool) { got = append(got, data...) }
		}
	})
	want := make([]byte, 300<<10)
	r := rand.New(rand.NewPCG(2, 3))
	for i := range want {
		want[i] = byte(1 + r.IntN(255))
	}
	conn := cep.Dial(srv, 443, DefaultConfig())
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		st.Write(want)
		st.Close()
	}
	s.RunFor(20 * time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("payload corrupted on the duplicating path: %d/%d bytes, first difference at %d",
			len(got), len(want), firstDiff(got, want))
	}
	if sconn.Stats.DuplicatesRecv == 0 {
		t.Error("no duplicate reached the server")
	}
	st := cep.WirePoolStats()
	if st.Shared == 0 || st.Gets != st.Puts+st.Shared {
		t.Errorf("client pool: %d taken, %d returned, %d shared", st.Gets, st.Puts, st.Shared)
	}
}

// oneInFlight is a congestion controller whose window is one full
// datagram, so the retransmission queue does not drain within the event
// that fills it and can be observed between events.
type oneInFlight struct{}

func (oneInFlight) Window() int                                     { return MaxDatagramSize }
func (oneInFlight) OnPacketSent(sim.Time, int)                      {}
func (oneInFlight) OnPacketAcked(sim.Time, int, *RTTEstimator)      {}
func (oneInFlight) OnCongestionEvent(now sim.Time, sentAt sim.Time) {}
func (oneInFlight) InSlowStart() bool                               { return false }
func (oneInFlight) Name() string                                    { return "one-in-flight" }
func (c *Connection) queuedFrames() (out []string, frames []*StreamFrame) {
	for _, f := range c.retxQueue.buf[c.retxQueue.head:] {
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
	sep.Listen(DefaultConfig(), func(c *Connection) {
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, fin bool) { got = append(got, data...) }
		}
	})
	cfg := DefaultConfig()
	cfg.NewCC = func() CongestionController { return oneInFlight{} }
	conn := cep.Dial(b.Addr(), 443, cfg)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 75) // 1200 bytes: one packet
	s.After(150*time.Millisecond, func() {
		st := conn.OpenStream()
		st.Write(payload)
		st.Close()
	})

	var log []string
	last := conn.Stats
	for s.Now() < sim.Time(5*time.Second) && s.Step() {
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
	inFlight := append(append([]*sentPacket(nil), c.ld.deque[c.ld.head:]...), c.ld.candidates...)
	for _, sp := range inFlight {
		for _, f := range sp.frames {
			claim(f, fmt.Sprintf("packet %d", sp.pn))
		}
	}
	_, queued := c.queuedFrames()
	for _, f := range queued {
		claim(f, "the retransmission queue")
	}
	for _, f := range c.frameFree.All() {
		claim(f, "the freelist")
	}
}

// FuzzParse: an endpoint's reused parser must decode every input exactly
// as the allocating Parse does, whatever it parsed before — stale frames,
// ACK ranges or header fields of the previous packet must not show
// through, and a hostile ACK range count must fail the same way.
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

	f.Fuzz(func(t *testing.T, first, second []byte) {
		var ps parser
		for i, in := range [][]byte{first, second, first} {
			want, wantErr := Parse(in)
			got, gotErr := ps.parse(in)
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
