package quic

import (
	"math/rand/v2"
	"testing"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// pair builds a two-node network with the given symmetric link config and
// returns (scheduler, client endpoint, server endpoint, server node addr).
func pair(t testing.TB, cfg netem.LinkConfig) (*sim.Scheduler, *Endpoint, *Endpoint, netem.Addr) {
	t.Helper()
	s := sim.NewScheduler(7)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	ab, ba := nw.Connect(a, b, cfg)
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)
	return s, NewEndpoint(a, 5000), NewEndpoint(b, 443), b.Addr()
}

func TestHandshakeCompletesInOneRTT(t *testing.T) {
	s, cep, sep, srv := pair(t, netem.LinkConfig{Delay: netem.ConstantDelay(25 * time.Millisecond)})
	sep.Listen(Config{}, func(c *Connection) {})

	var establishedAt sim.Time
	conn := cep.Dial(srv, 443, Config{})
	conn.OnEstablished = func() { establishedAt = s.Now() }
	s.RunFor(2 * time.Second)

	if conn.state != stateEstablished {
		t.Fatal("handshake did not complete")
	}
	// One RTT is 50ms; the server flight is 3 packets, all arriving
	// together over the infinite-rate link.
	if establishedAt < sim.Time(50*time.Millisecond) || establishedAt > sim.Time(80*time.Millisecond) {
		t.Errorf("established at %v, want ~1 RTT (50ms)", establishedAt)
	}
}

func TestBulkTransferDelivery(t *testing.T) {
	const total = 2 << 20 // 2 MB
	s, cep, sep, srv := pair(t, netem.LinkConfig{
		RateBps: 50e6,
		Delay:   netem.ConstantDelay(20 * time.Millisecond),
	})

	var received int
	done := false
	sep.Listen(Config{}, func(c *Connection) {
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, fin bool) {
				received += len(data)
				if fin {
					done = true
				}
			}
		}
	})

	conn := cep.Dial(srv, 443, Config{})
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		st.WriteZeroes(total)
		st.Close()
	}
	s.RunFor(30 * time.Second)

	if !done {
		t.Fatalf("transfer incomplete: %d/%d bytes", received, total)
	}
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
	if conn.Stats.PacketsLost != 0 {
		t.Errorf("losses on a clean link: %d", conn.Stats.PacketsLost)
	}
}

func TestBulkTransferWithLossCompletesAndRetransmits(t *testing.T) {
	const total = 1 << 20
	s := sim.NewScheduler(11)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	lossy := netem.LinkConfig{
		RateBps: 50e6,
		Delay:   netem.ConstantDelay(20 * time.Millisecond),
		Loss:    &netem.BernoulliLoss{P: 0.02, Rng: s.RNG().Stream("loss")},
	}
	clean := netem.LinkConfig{RateBps: 50e6, Delay: netem.ConstantDelay(20 * time.Millisecond)}
	ab := nw.AddLink(a, b, lossy)
	ba := nw.AddLink(b, a, clean)
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)

	cep := NewEndpoint(a, 5000)
	sep := NewEndpoint(b, 443)

	var received int
	done := false
	sep.Listen(Config{}, func(c *Connection) {
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, fin bool) {
				received += len(data)
				if fin {
					done = true
				}
			}
		}
	})
	conn := cep.Dial(srvAddr(b), 443, Config{})
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		st.WriteZeroes(total)
		st.Close()
	}
	s.RunFor(60 * time.Second)

	if !done || received != total {
		t.Fatalf("transfer incomplete: %d/%d (done=%v)", received, total, done)
	}
	if conn.Stats.PacketsLost == 0 {
		t.Error("expected sender-detected losses on a 2% lossy link")
	}
	if conn.Stats.FramesRetransmitted == 0 {
		t.Error("expected retransmitted frames")
	}
}

func srvAddr(n *netem.Node) netem.Addr { return n.Addr() }

// fakeConn builds a connection on a minimal one-node network, for tests
// that drive its receive side directly.
func fakeConn(isClient bool) *Connection {
	node := netem.New(sim.NewScheduler(1)).NewNode("x", netem.MustParseAddr("10.0.0.1"))
	ep := NewEndpoint(node, 1)
	c := newConnection(ep, Config{}, isClient, 1, netem.MustParseAddr("10.0.0.2"), 1)
	ep.conns[1] = c
	return c
}

func TestReceiverSeesPacketNumberGapsOnLoss(t *testing.T) {
	const total = 1 << 20
	s := sim.NewScheduler(13)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	// Loss only client->server.
	ab := nw.AddLink(a, b, netem.LinkConfig{
		RateBps: 50e6, Delay: netem.ConstantDelay(10 * time.Millisecond),
		Loss: &netem.BernoulliLoss{P: 0.03, Rng: s.RNG().Stream("l")},
	})
	ba := nw.AddLink(b, a, netem.LinkConfig{RateBps: 50e6, Delay: netem.ConstantDelay(10 * time.Millisecond)})
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)

	cep := NewEndpoint(a, 5000)
	sep := NewEndpoint(b, 443)
	var serverConn *Connection
	done := false
	sep.Listen(Config{}, func(c *Connection) {
		serverConn = c
		c.OnStream = func(st *Stream) {
			st.OnData = func(_ []byte, fin bool) {
				if fin {
					done = true
				}
			}
		}
	})
	conn := cep.Dial(b.Addr(), 443, Config{})
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		st.WriteZeroes(total)
		st.Close()
	}
	s.RunFor(60 * time.Second)
	if !done {
		t.Fatal("transfer incomplete")
	}

	// Conservation: every sent packet number was either received or is a
	// gap in the receiver's ranges.
	if conn.nextPN == 0 {
		t.Fatal("nothing sent")
	}
	largest := conn.nextPN - 1
	var receivedCount uint64
	for _, r := range serverConn.recvSet.Spans() {
		receivedCount += r.End - r.Start
	}
	lostOnWire := largest + 1 - receivedCount
	if lostOnWire == 0 {
		t.Error("expected receiver-visible packet number gaps")
	}
	// Sender sent exactly largest+1 packets.
	if conn.Stats.PacketsSent != largest+1 {
		t.Errorf("PacketsSent=%d largestPN=%d: packet numbers must be gapless", conn.Stats.PacketsSent, largest)
	}
}

// setConnWindow replaces quiche's 10 MB connection window of c, autotuned
// up to 40 MB, with w, autotuned up to limit (0: the window only slides).
// Set on both peers before data flows.
func setConnWindow(c *Connection, w, limit uint64) {
	c.maxDataLocal, c.connWindow, c.maxDataRemote = w, w, w
	c.windowCap = limit
}

func TestFlowControlLimitsInFlightData(t *testing.T) {
	// Very slow "receiver" side: a thin link so data dribbles.
	s, cep, sep, srv := pair(t, netem.LinkConfig{
		RateBps: 10e6,
		Delay:   netem.ConstantDelay(30 * time.Millisecond),
	})
	received := 0
	done := false
	sep.Listen(Config{}, func(c *Connection) {
		setConnWindow(c, 64<<10, 0)
		c.OnStream = func(st *Stream) {
			st.OnData = func(d []byte, fin bool) {
				received += len(d)
				if fin {
					done = true
				}
			}
		}
	})
	conn := cep.Dial(srv, 443, Config{})
	setConnWindow(conn, 64<<10, 0)
	const total = 512 << 10
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		st.WriteZeroes(total)
		st.Close()
	}
	s.RunFor(60 * time.Second)
	if !done || received != total {
		t.Fatalf("flow-controlled transfer incomplete: %d/%d", received, total)
	}
}

func TestMessageStreamsArriveIntact(t *testing.T) {
	s, cep, sep, srv := pair(t, netem.LinkConfig{
		RateBps: 20e6,
		Delay:   netem.ConstantDelay(25 * time.Millisecond),
	})
	type msg struct {
		bytes int
		fin   bool
	}
	got := map[uint64]*msg{}
	sep.Listen(Config{}, func(c *Connection) {
		c.OnStream = func(st *Stream) {
			m := &msg{}
			got[st.id] = m
			st.OnData = func(d []byte, fin bool) {
				m.bytes += len(d)
				if fin {
					m.fin = true
				}
			}
		}
	})
	conn := cep.Dial(srv, 443, Config{})
	sizes := []int{5000, 12000, 25000, 8000, 17000}
	conn.OnEstablished = func() {
		for i, size := range sizes {
			size := size
			s.After(time.Duration(i)*40*time.Millisecond, func() {
				st := conn.OpenStream()
				st.WriteZeroes(size)
				st.Close()
			})
		}
	}
	s.RunFor(10 * time.Second)

	if len(got) != len(sizes) {
		t.Fatalf("received %d messages, want %d", len(got), len(sizes))
	}
	for id, m := range got {
		want := sizes[int(id/4)]
		if m.bytes != want || !m.fin {
			t.Errorf("stream %d: %d bytes fin=%v, want %d bytes fin", id, m.bytes, m.fin, want)
		}
	}
}

func TestRTTSamplesReflectPathDelay(t *testing.T) {
	s, cep, sep, srv := pair(t, netem.LinkConfig{Delay: netem.ConstantDelay(40 * time.Millisecond)})
	sep.Listen(Config{}, func(c *Connection) {})
	conn := cep.Dial(srv, 443, Config{})
	var samples []time.Duration
	conn.OnRTTSample = func(_ sim.Time, rtt time.Duration) { samples = append(samples, rtt) }
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		st.WriteZeroes(100 << 10)
		st.Close()
	}
	s.RunFor(10 * time.Second)
	if len(samples) == 0 {
		t.Fatal("no RTT samples")
	}
	for _, rtt := range samples {
		if rtt < 80*time.Millisecond || rtt > 130*time.Millisecond {
			t.Errorf("RTT sample %v outside [80ms, 130ms] on an unloaded 80ms path", rtt)
		}
	}
	if got := conn.rtt.Min(); got < 80*time.Millisecond || got > 85*time.Millisecond {
		t.Errorf("min RTT %v, want ~80ms", got)
	}
}

func TestNoPacingSendsBackToBackBursts(t *testing.T) {
	// With pacing off (quiche behaviour), a 25 kB message leaves as a
	// burst of back-to-back packets: the bottleneck queue fills.
	run := func(pacing bool) time.Duration {
		s := sim.NewScheduler(17)
		nw := netem.New(s)
		a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
		b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
		cfglink := netem.LinkConfig{RateBps: 20e6, Delay: netem.ConstantDelay(25 * time.Millisecond)}
		ab, ba := nw.Connect(a, b, cfglink)
		a.AddRoute(b.Addr(), ab)
		b.AddRoute(a.Addr(), ba)
		cep := NewEndpoint(a, 5000)
		sep := NewEndpoint(b, 443)
		// Near-immediate ACKs: with quiche's 25 ms maximum ACK delay, a
		// delayed ACK on an odd tail packet inflates the max sample by
		// more than the queueing under test in both runs.
		sep.Listen(Config{}, func(c *Connection) { c.ackDelayCap = time.Millisecond })
		ccfg := Config{}
		ccfg.EnablePacing = pacing
		// Pin the window so the two runs differ only in packet spacing:
		// slow-start overshoot would otherwise dominate the max-RTT sample
		// in both runs and drown the burst-queueing signal under test.
		ccfg.NewCC = func() cc.CongestionController { return cc.NewFixed(50000) }
		conn := cep.Dial(b.Addr(), 443, ccfg)
		// Strictest spacing: every packet paced, no burst allowance, so
		// the queue-buildup contrast against the unpaced run is sharp.
		conn.pacer.BurstPackets = 1
		var maxRTT time.Duration
		conn.OnRTTSample = func(_ sim.Time, rtt time.Duration) {
			if rtt > maxRTT {
				maxRTT = rtt
			}
		}
		conn.OnEstablished = func() {
			// Several 25 kB messages after the window has grown.
			for i := 0; i < 20; i++ {
				s.After(time.Duration(i)*40*time.Millisecond, func() {
					st := conn.OpenStream()
					st.WriteZeroes(25000)
					st.Close()
				})
			}
		}
		s.RunFor(10 * time.Second)
		return maxRTT
	}
	unpaced := run(false)
	paced := run(true)
	if unpaced <= paced {
		t.Errorf("unpaced max RTT %v should exceed paced %v (queue buildup)", unpaced, paced)
	}
}

func TestConnectionClose(t *testing.T) {
	s, cep, sep, srv := pair(t, netem.LinkConfig{Delay: netem.ConstantDelay(10 * time.Millisecond)})
	var serverConn *Connection
	sep.Listen(Config{}, func(c *Connection) { serverConn = c })
	conn := cep.Dial(srv, 443, Config{})
	closed := false
	conn.OnEstablished = func() {
		conn.Close(0, "bye")
		closed = true
	}
	s.RunFor(5 * time.Second)
	if !closed || !conn.Closed() {
		t.Fatal("client close failed")
	}
	if serverConn == nil || !serverConn.Closed() {
		t.Fatal("server did not observe CONNECTION_CLOSE")
	}
}

func TestHandshakeRetransmitsAfterTotalLossWindow(t *testing.T) {
	s := sim.NewScheduler(19)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	// Link down for the first 500ms: the ClientHello is lost; PTO must
	// recover the handshake.
	down := func(at sim.Time) bool { return at < sim.Time(500*time.Millisecond) }
	ab, ba := nw.Connect(a, b, netem.LinkConfig{Delay: netem.ConstantDelay(10 * time.Millisecond), Down: down})
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)
	cep := NewEndpoint(a, 5000)
	sep := NewEndpoint(b, 443)
	sep.Listen(Config{}, func(c *Connection) {})
	conn := cep.Dial(b.Addr(), 443, Config{})
	s.RunFor(10 * time.Second)
	if conn.state != stateEstablished {
		t.Fatal("handshake never recovered from initial outage")
	}
	if conn.Stats.ProbesSent == 0 {
		t.Error("expected PTO probes during the outage")
	}
}

func TestDuplicateDeliveryIgnored(t *testing.T) {
	// Deliver every client datagram twice; the server must count
	// duplicates and the stream must deliver exactly once.
	s := sim.NewScheduler(23)
	nw := netem.New(s)
	// The duplicator keeps a packet past its synchronous call, which only
	// a network that recycles nothing allows.
	nw.DisableRecycling()
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	m := nw.NewNode("dup", netem.MustParseAddr("10.0.0.9"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	am, ma := nw.Connect(a, m, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
	mb, bm := nw.Connect(m, b, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
	a.AddRoute(b.Addr(), am)
	m.AddRoute(b.Addr(), mb)
	m.AddRoute(a.Addr(), ma)
	b.AddRoute(a.Addr(), bm)
	// Duplicator device on m: forward + send a copy (client->server only).
	m.AttachDevice(netem.DeviceFunc(func(n *netem.Node, pkt *netem.Packet) bool {
		if pkt.Dst == b.Addr() && pkt.Proto == netem.ProtoUDP {
			cp := *pkt
			n.Scheduler().After(time.Millisecond, func() { n.Send(&cp) })
		}
		return true
	}))

	cep := NewEndpoint(a, 5000)
	sep := NewEndpoint(b, 443)
	received := 0
	done := false
	var sconn *Connection
	sep.Listen(Config{}, func(c *Connection) {
		sconn = c
		c.OnStream = func(st *Stream) {
			st.OnData = func(d []byte, fin bool) {
				received += len(d)
				if fin {
					done = true
				}
			}
		}
	})
	conn := cep.Dial(b.Addr(), 443, Config{})
	const total = 64 << 10
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		st.WriteZeroes(total)
		st.Close()
	}
	s.RunFor(20 * time.Second)
	if !done || received != total {
		t.Fatalf("duplicated-path transfer: %d/%d done=%v", received, total, done)
	}
	if sconn.Stats.DuplicatesRecv == 0 {
		t.Error("server should have counted duplicate packets")
	}
}

// CRYPTO frames that arrive out of order, twice, or overlapping one
// another advance the emulated handshake exactly when the contiguous prefix
// of the crypto stream reaches the peer's flight size — never on bytes that
// lie beyond a gap. Scripted cases name the shapes; seeded random pieces
// cover the rest against a bitmap of the bytes received.
func TestCryptoReassemblyAdvancesHandshakeAtPrefix(t *testing.T) {
	type piece struct{ off, end uint64 }
	check := func(t *testing.T, isClient bool, pieces []piece) {
		t.Helper()
		c := fakeConn(isClient)
		need := uint64(clientHelloSize)
		if isClient {
			need = serverFlightSize
		}
		var got []bool
		crossedAt := -1
		for i, p := range pieces {
			for uint64(len(got)) < p.end {
				got = append(got, false)
			}
			for b := p.off; b < p.end; b++ {
				got[b] = true
			}
			prefix := uint64(0)
			for prefix < uint64(len(got)) && got[prefix] {
				prefix++
			}
			c.onCrypto(&CryptoFrame{Offset: p.off, Data: make([]byte, p.end-p.off)})
			if established := c.state == stateEstablished; established != (prefix >= need) {
				t.Fatalf("piece %d [%d,%d): established=%v with a contiguous prefix of %d (flight %d)",
					i, p.off, p.end, established, prefix, need)
			}
			if prefix >= need && crossedAt < 0 {
				crossedAt = i
			}
		}
		if crossedAt < 0 {
			t.Fatalf("the pieces never complete the %d-byte flight", need)
		}
	}
	for _, tc := range []struct {
		name     string
		isClient bool
		pieces   []piece
	}{
		{"server-in-order", false, []piece{{0, 100}, {100, 320}}},
		{"server-reversed", false, []piece{{200, 320}, {100, 200}, {0, 100}}},
		{"server-duplicate-beyond-gap", false, []piece{{100, 320}, {100, 320}, {50, 99}, {0, 50}, {99, 100}}},
		{"server-overlap-swallows", false, []piece{{10, 20}, {30, 40}, {5, 310}, {0, 6}, {300, 330}}},
		{"server-stale-below-prefix", false, []piece{{0, 200}, {0, 100}, {150, 250}, {250, 320}}},
		{"client-three-datagrams-late-first", true, []piece{{1150, 2300}, {2300, 3000}, {0, 1150}}},
		{"client-overlapping-retransmits", true, []piece{{0, 1000}, {2000, 3000}, {500, 1500}, {1400, 2001}, {0, 3000}}},
		{"client-gap-at-one-byte", true, []piece{{0, 1999}, {2000, 3000}, {2000, 3000}, {1999, 2000}}},
	} {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.isClient, tc.pieces) })
	}
	r := rand.New(rand.NewPCG(28, 3))
	for trial := 0; trial < 200; trial++ {
		isClient := trial%2 == 1
		size := uint64(clientHelloSize)
		if isClient {
			size = serverFlightSize
		}
		var pieces []piece
		for covered := uint64(0); covered < size; {
			// Pieces land anywhere below the flight end, some past a gap;
			// the last one closes the prefix whatever came before.
			off := r.Uint64N(size)
			end := min(off+1+r.Uint64N(size/3), size)
			if r.IntN(4) == 0 {
				off, end = covered, min(covered+1+r.Uint64N(size/4), size)
				covered = end
			}
			pieces = append(pieces, piece{off, end})
			if r.IntN(5) == 0 {
				pieces = append(pieces, piece{off, end}) // a duplicate
			}
		}
		t.Run("random", func(t *testing.T) { check(t, isClient, pieces) })
	}
}

// frames is a device that hands count every frame of each QUIC datagram
// arriving at its node.
func frames(t *testing.T, count func(Frame)) netem.DeviceFunc {
	return func(_ *netem.Node, pkt *netem.Packet) bool {
		if w, ok := pkt.Payload.(*wireBuf); ok {
			p, err := decodeWire(w)
			if err != nil {
				t.Fatalf("undecodable datagram: %v", err)
			}
			for _, f := range p.Frames {
				count(f)
			}
		}
		return true
	}
}

// The paper's §3.3 finding, that quiche's 10 MB receive windows never bind
// on Starlink, as a property of the constants. Its re-run raised the
// windows to 150 MB and saw no gain; here a 100 MB download with quiche's
// windows ends no later than the same download with 150 MB windows, over a
// path faster than the Starlink downlinks the model draws: 1 Gbit/s, 4.9
// times the model's 205 Mbit/s median and more than six standard
// deviations of its log-normal draw above it, with a 50 ms RTT and the
// CPE's 2.5 MB queue (6.25 MB of BDP and 2.5 MB of queue, under the
// 10 MB window). With 4 MB windows (autotuned up to 8 MB) it ends 0.7 s
// later, and the sender reports its stall on connection flow control with
// a DATA_BLOCKED; with quiche's it sends none.
func TestDefaultWindowsNeverBlockStarlinkDownload(t *testing.T) {
	quiche, blocked := windowedDownload(t, 0)
	wide, _ := windowedDownload(t, 150<<20)
	if quiche > wide {
		t.Errorf("100 MB download: %v with quiche's windows, %v with 150 MB windows; the windows bind", quiche, wide)
	}
	if blocked != 0 {
		t.Errorf("%d DATA_BLOCKED frames with quiche's windows", blocked)
	}
}

// windowedDownload runs the download TestDefaultWindowsNeverBlockStarlinkDownload
// describes, with every receive window widened to wide (0: quiche's), and
// returns how long it took and how many DATA_BLOCKED frames reached the
// client.
func windowedDownload(t *testing.T, wide uint64) (time.Duration, int) {
	s, cep, sep, srv := pair(t, netem.LinkConfig{
		RateBps:    1e9,
		Delay:      netem.ConstantDelay(25 * time.Millisecond),
		QueueBytes: 2560 << 10,
	})
	const total = 100 << 20
	blocked := 0
	cep.node.AttachDevice(frames(t, func(f Frame) {
		if _, ok := f.(*DataBlockedFrame); ok {
			blocked++
		}
	}))
	widen := func(c *Connection) {
		if wide > 0 {
			setConnWindow(c, wide, 2*wide)
		}
	}
	sep.Listen(Config{}, func(c *Connection) {
		widen(c)
		c.OnStream = func(st *Stream) {
			if wide > 0 {
				st.maxSendData = wide
			}
			st.OnData = func(_ []byte, fin bool) {
				if fin {
					st.WriteZeroes(total)
					st.Close()
				}
			}
		}
	})
	conn := cep.Dial(srv, 443, Config{})
	widen(conn)
	received, end := 0, sim.Time(-1)
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		if wide > 0 {
			st.maxRecvData, st.recvWindow = wide, wide
		}
		st.OnData = func(d []byte, fin bool) {
			received += len(d)
			if fin {
				end = s.Now()
			}
		}
		st.Write([]byte{1})
		st.Close()
	}
	s.RunFor(30 * time.Second)
	if end < 0 || received != total {
		t.Fatalf("download: %d of %d bytes, fin %v", received, total, end >= 0)
	}
	return time.Duration(end), blocked
}

// A sender stalled on connection flow control says so once per limit: it
// sends one DATA_BLOCKED for each MAX_DATA value it runs into, never a
// second for the same one, and the transfer completes as the receiver's
// MAX_DATA frames raise the limit. Without autotuning the 64 kB window
// only slides, so a 1 MB transfer stalls on it again and again.
func TestDataBlockedOncePerLimit(t *testing.T) {
	s, cep, sep, srv := pair(t, netem.LinkConfig{RateBps: 20e6, Delay: netem.ConstantDelay(10 * time.Millisecond)})
	blocked := map[uint64]int{}
	maxData := 0
	sep.node.AttachDevice(frames(t, func(f Frame) {
		if db, ok := f.(*DataBlockedFrame); ok {
			blocked[db.Limit]++
		}
	}))
	cep.node.AttachDevice(frames(t, func(f Frame) {
		if _, ok := f.(*MaxDataFrame); ok {
			maxData++
		}
	}))
	const total = 1 << 20
	received, done := 0, false
	sep.Listen(Config{}, func(c *Connection) {
		setConnWindow(c, 64<<10, 0)
		c.OnStream = func(st *Stream) {
			st.OnData = func(d []byte, fin bool) {
				received += len(d)
				done = done || fin
			}
		}
	})
	conn := cep.Dial(srv, 443, Config{})
	setConnWindow(conn, 64<<10, 0)
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		st.WriteZeroes(total)
		st.Close()
	}
	s.RunFor(30 * time.Second)
	if !done || received != total {
		t.Fatalf("flow-controlled transfer: %d of %d bytes, fin %v", received, total, done)
	}
	if len(blocked) < 2 || maxData < len(blocked) {
		t.Fatalf("%d limits reported blocked and %d MAX_DATA frames; want the sender to stall on several limits, each raised", len(blocked), maxData)
	}
	for limit, n := range blocked {
		if n != 1 {
			t.Errorf("%d DATA_BLOCKED frames at limit %d, want 1", n, limit)
		}
	}
	if conn.Stats.ProbesSent != 0 {
		t.Errorf("%d PTO probes on a lossless path", conn.Stats.ProbesSent)
	}
}
