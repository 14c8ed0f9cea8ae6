package quic

import (
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
	sep.Listen(DefaultConfig(), func(c *Connection) {})

	var establishedAt sim.Time
	conn := cep.Dial(srv, 443, DefaultConfig())
	conn.OnEstablished = func() { establishedAt = s.Now() }
	s.RunFor(2 * time.Second)

	if !conn.Established() {
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
	sep.Listen(DefaultConfig(), func(c *Connection) {
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, fin bool) {
				received += len(data)
				if fin {
					done = true
				}
			}
		}
	})

	conn := cep.Dial(srv, 443, DefaultConfig())
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
	sep.Listen(DefaultConfig(), func(c *Connection) {
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, fin bool) {
				received += len(data)
				if fin {
					done = true
				}
			}
		}
	})
	conn := cep.Dial(srvAddr(b), 443, DefaultConfig())
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
	sep.Listen(DefaultConfig(), func(c *Connection) {
		serverConn = c
		c.OnStream = func(st *Stream) {
			st.OnData = func(_ []byte, fin bool) {
				if fin {
					done = true
				}
			}
		}
	})
	conn := cep.Dial(b.Addr(), 443, DefaultConfig())
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
	largest, ok := conn.LargestSentPN()
	if !ok {
		t.Fatal("nothing sent")
	}
	var receivedCount uint64
	for _, r := range serverConn.ReceivedPacketRanges() {
		receivedCount += r.Largest - r.Smallest + 1
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

func TestFlowControlLimitsInFlightData(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialMaxData = 64 << 10
	cfg.InitialMaxStreamData = 64 << 10
	cfg.MaxReceiveWindow = 0 // no autotuning

	// Very slow "receiver" side: a thin link so data dribbles.
	s, cep, sep, srv := pair(t, netem.LinkConfig{
		RateBps: 10e6,
		Delay:   netem.ConstantDelay(30 * time.Millisecond),
	})
	received := 0
	done := false
	sep.Listen(cfg, func(c *Connection) {
		c.OnStream = func(st *Stream) {
			st.OnData = func(d []byte, fin bool) {
				received += len(d)
				if fin {
					done = true
				}
			}
		}
	})
	conn := cep.Dial(srv, 443, cfg)
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
	sep.Listen(DefaultConfig(), func(c *Connection) {
		c.OnStream = func(st *Stream) {
			m := &msg{}
			got[st.ID()] = m
			st.OnData = func(d []byte, fin bool) {
				m.bytes += len(d)
				if fin {
					m.fin = true
				}
			}
		}
	})
	conn := cep.Dial(srv, 443, DefaultConfig())
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
	sep.Listen(DefaultConfig(), func(c *Connection) {})
	conn := cep.Dial(srv, 443, DefaultConfig())
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
	if got := conn.RTT().Min(); got < 80*time.Millisecond || got > 85*time.Millisecond {
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
		// Near-immediate ACKs: with the default 25 ms MaxAckDelay, a
		// delayed ACK on an odd tail packet inflates the max sample by
		// more than the queueing under test in both runs.
		scfg := DefaultConfig()
		scfg.MaxAckDelay = time.Millisecond
		sep.Listen(scfg, func(c *Connection) {})
		ccfg := DefaultConfig()
		ccfg.EnablePacing = pacing
		// Strictest spacing: every packet paced, no burst allowance, so
		// the queue-buildup contrast against the unpaced run is sharp.
		ccfg.PacingBurst = 1
		// Pin the window so the two runs differ only in packet spacing:
		// slow-start overshoot would otherwise dominate the max-RTT sample
		// in both runs and drown the burst-queueing signal under test.
		ccfg.NewCC = func() CongestionController { return cc.NewFixed(50000) }
		conn := cep.Dial(b.Addr(), 443, ccfg)
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
	sep.Listen(DefaultConfig(), func(c *Connection) { serverConn = c })
	conn := cep.Dial(srv, 443, DefaultConfig())
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
	sep.Listen(DefaultConfig(), func(c *Connection) {})
	conn := cep.Dial(b.Addr(), 443, DefaultConfig())
	s.RunFor(10 * time.Second)
	if !conn.Established() {
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
			cp := pkt.Clone()
			n.Scheduler().After(time.Millisecond, func() { n.Send(cp) })
		}
		return true
	}))

	cep := NewEndpoint(a, 5000)
	sep := NewEndpoint(b, 443)
	received := 0
	done := false
	var sconn *Connection
	sep.Listen(DefaultConfig(), func(c *Connection) {
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
	conn := cep.Dial(b.Addr(), 443, DefaultConfig())
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
