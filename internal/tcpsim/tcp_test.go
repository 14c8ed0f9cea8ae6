package tcpsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

func pairNet(t *testing.T, cfg netem.LinkConfig) (*sim.Scheduler, *netem.Node, *netem.Node) {
	t.Helper()
	s := sim.NewScheduler(31)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	ab, ba := nw.Connect(a, b, cfg)
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)
	return s, a, b
}

func TestHandshakeSetupTimePlainTCP(t *testing.T) {
	s, a, b := pairNet(t, netem.LinkConfig{Delay: netem.ConstantDelay(50 * time.Millisecond)})
	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	Listen(b, 80, cfg, nil)
	c := Dial(a, b.Addr(), 80, cfg)
	s.RunFor(5 * time.Second)
	if !c.Ready() {
		t.Fatal("not established")
	}
	// Plain TCP: client ready after 1 RTT (SYN + SYN-ACK).
	if got := c.SetupTime(); got != 100*time.Millisecond {
		t.Errorf("setup = %v, want 100ms", got)
	}
}

func TestSetupTimeTLS12IsThreeRTTs(t *testing.T) {
	// The paper: SatCom connection setup (incl. TLS) averages ~2030ms at
	// ~600ms RTT; Starlink ~167ms at ~50ms RTT — i.e. just over 3 RTTs.
	s, a, b := pairNet(t, netem.LinkConfig{Delay: netem.ConstantDelay(50 * time.Millisecond)})
	cfg := DefaultConfig() // TLS 1.2
	Listen(b, 443, cfg, nil)
	c := Dial(a, b.Addr(), 443, cfg)
	s.RunFor(10 * time.Second)
	if !c.Ready() {
		t.Fatal("not established")
	}
	setup := c.SetupTime()
	if setup < 300*time.Millisecond || setup > 360*time.Millisecond {
		t.Errorf("TLS1.2 setup = %v, want ~3xRTT + processing (300-360ms)", setup)
	}
}

func TestSetupTimeTLS13IsTwoRTTs(t *testing.T) {
	s, a, b := pairNet(t, netem.LinkConfig{Delay: netem.ConstantDelay(50 * time.Millisecond)})
	cfg := DefaultConfig()
	cfg.TLSRounds = 1
	Listen(b, 443, cfg, nil)
	c := Dial(a, b.Addr(), 443, cfg)
	s.RunFor(10 * time.Second)
	if !c.Ready() {
		t.Fatal("not established")
	}
	setup := c.SetupTime()
	if setup < 200*time.Millisecond || setup > 260*time.Millisecond {
		t.Errorf("TLS1.3 setup = %v, want ~2xRTT + processing", setup)
	}
}

func TestBulkTransferCleanLink(t *testing.T) {
	s, a, b := pairNet(t, netem.LinkConfig{
		RateBps: 50e6, Delay: netem.ConstantDelay(20 * time.Millisecond), QueueBytes: 256 << 10,
	})
	cfg := DefaultConfig()
	cfg.TLSRounds = 0

	received := 0
	finSeen := false
	Listen(b, 80, cfg, func(sc *Conn) {
		sc.OnData = func(n int, fin bool) {
			received += n
			if fin {
				finSeen = true
			}
		}
	})
	const total = 4 << 20
	c := Dial(a, b.Addr(), 80, cfg)
	c.OnEstablished = func() {
		c.Write(total)
		c.Close()
	}
	s.RunFor(60 * time.Second)

	if received != total || !finSeen {
		t.Fatalf("received %d/%d fin=%v", received, total, finSeen)
	}
	if !c.finAcked {
		t.Error("sender FIN not acked")
	}
	// Throughput sanity: 4MB over 50Mbit/s ≈ 0.7s + slow start; the
	// transfer must finish well under 5s.
	if c.ReadyAt == 0 {
		t.Error("ReadyAt not stamped")
	}
}

func TestBulkTransferThroughputApproachesLinkRate(t *testing.T) {
	s, a, b := pairNet(t, netem.LinkConfig{
		RateBps: 20e6, Delay: netem.ConstantDelay(25 * time.Millisecond), QueueBytes: 512 << 10,
	})
	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	received := 0
	var doneAt sim.Time
	Listen(b, 80, cfg, func(sc *Conn) {
		sc.OnData = func(n int, fin bool) {
			received += n
			if fin {
				doneAt = s.Now()
			}
		}
	})
	const total = 10 << 20
	c := Dial(a, b.Addr(), 80, cfg)
	var startAt sim.Time
	c.OnEstablished = func() {
		startAt = s.Now()
		c.Write(total)
		c.Close()
	}
	s.RunFor(120 * time.Second)
	if received != total {
		t.Fatalf("received %d/%d", received, total)
	}
	dur := doneAt.Sub(startAt).Seconds()
	gbps := float64(total) * 8 / dur
	if gbps < 14e6 {
		t.Errorf("goodput %.1f Mbit/s, want >14 on a 20 Mbit/s link", gbps/1e6)
	}
}

func TestTransferSurvivesLoss(t *testing.T) {
	s := sim.NewScheduler(37)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	ab := nw.AddLink(a, b, netem.LinkConfig{
		RateBps: 20e6, Delay: netem.ConstantDelay(20 * time.Millisecond),
		Loss: &netem.BernoulliLoss{P: 0.02, Rng: s.RNG().Stream("l")},
	})
	ba := nw.AddLink(b, a, netem.LinkConfig{RateBps: 20e6, Delay: netem.ConstantDelay(20 * time.Millisecond)})
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)

	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	received := 0
	fin := false
	Listen(b, 80, cfg, func(sc *Conn) {
		sc.OnData = func(n int, f bool) {
			received += n
			if f {
				fin = true
			}
		}
	})
	const total = 2 << 20
	c := Dial(a, b.Addr(), 80, cfg)
	c.OnEstablished = func() {
		c.Write(total)
		c.Close()
	}
	s.RunFor(120 * time.Second)
	if received != total || !fin {
		t.Fatalf("received %d/%d fin=%v", received, total, fin)
	}
	if c.Stats.FastRetransmits == 0 && c.Stats.RTOs == 0 {
		t.Error("no recovery events on a lossy link")
	}
	if c.Stats.BytesRetx == 0 {
		t.Error("no retransmitted bytes on a lossy link")
	}
}

func TestReceiveWindowLimitsThroughputOnHighBDP(t *testing.T) {
	// GEO-like path: 500ms RTT, 100 Mbit/s. BDP = 6.25 MB > max rwnd
	// 6 MB, so the e2e transfer cannot exceed rwnd/RTT ≈ 96 Mbit/s. With
	// an artificially small 512 kB rwnd it must cap near 8 Mbit/s — the
	// mechanism PEPs exist to fix.
	run := func(maxWnd uint64) float64 {
		s, a, b := pairNet(t, netem.LinkConfig{
			RateBps: 100e6, Delay: netem.ConstantDelay(250 * time.Millisecond), QueueBytes: 4 << 20,
		})
		cfg := DefaultConfig()
		cfg.TLSRounds = 0
		cfg.InitialRcvWnd = 128 << 10
		cfg.MaxRcvWnd = maxWnd
		received := 0
		var start, end sim.Time
		Listen(b, 80, cfg, func(sc *Conn) {
			sc.OnData = func(n int, f bool) {
				received += n
				if f {
					end = s.Now()
				}
			}
		})
		const total = 8 << 20
		c := Dial(a, b.Addr(), 80, cfg)
		c.OnEstablished = func() {
			start = s.Now()
			c.Write(total)
			c.Close()
		}
		s.RunFor(300 * time.Second)
		if received != total {
			t.Fatalf("rwnd=%d: received %d/%d", maxWnd, received, total)
		}
		return float64(total) * 8 / end.Sub(start).Seconds()
	}
	small := run(512 << 10)
	big := run(6 << 20)
	if small >= big {
		t.Errorf("small rwnd %.1f Mbit/s should be slower than big %.1f", small/1e6, big/1e6)
	}
	if small > 10e6 {
		t.Errorf("512kB rwnd at 500ms RTT gave %.1f Mbit/s, want <10", small/1e6)
	}
}

func TestParallelConnectionsShareBottleneck(t *testing.T) {
	s, a, b := pairNet(t, netem.LinkConfig{
		RateBps: 20e6, Delay: netem.ConstantDelay(25 * time.Millisecond), QueueBytes: 256 << 10,
	})
	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	const n = 4
	const each = 2 << 20
	perConn := map[*Conn]int{}
	fins := 0
	Listen(b, 81, cfg, func(sc *Conn) {
		sc.OnData = func(nn int, f bool) {
			perConn[sc] += nn
			if f {
				fins++
			}
		}
	})
	for i := 0; i < n; i++ {
		c := Dial(a, b.Addr(), 81, cfg)
		c.OnEstablished = func() {
			c.Write(each)
			c.Close()
		}
	}
	s.RunFor(60 * time.Second)
	if fins != n {
		t.Fatalf("%d/%d transfers finished", fins, n)
	}
	total := 0
	for _, v := range perConn {
		total += v
	}
	if total != n*each {
		t.Fatalf("received %d/%d", total, n*each)
	}
}

func TestSYNRetransmissionSurvivesOutage(t *testing.T) {
	s := sim.NewScheduler(41)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	down := func(at sim.Time) bool { return at < sim.Time(1500*time.Millisecond) }
	ab, ba := nw.Connect(a, b, netem.LinkConfig{Delay: netem.ConstantDelay(10 * time.Millisecond), Down: down})
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)
	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	Listen(b, 80, cfg, nil)
	c := Dial(a, b.Addr(), 80, cfg)
	s.RunFor(30 * time.Second)
	if !c.Ready() {
		t.Fatal("handshake never completed after outage")
	}
	if c.Stats.RTOs == 0 {
		t.Error("expected SYN retransmissions")
	}
}

func TestServerPush(t *testing.T) {
	// Data flowing server->client (the download direction of web and
	// speedtest workloads).
	s, a, b := pairNet(t, netem.LinkConfig{RateBps: 20e6, Delay: netem.ConstantDelay(20 * time.Millisecond)})
	cfg := DefaultConfig()
	cfg.TLSRounds = 1
	received := 0
	fin := false
	Listen(b, 443, cfg, func(sc *Conn) {
		sc.OnEstablished = func() {
			sc.Write(500 << 10)
			sc.Close()
		}
	})
	c := Dial(a, b.Addr(), 443, cfg)
	c.OnData = func(n int, f bool) {
		received += n
		if f {
			fin = true
		}
	}
	s.RunFor(30 * time.Second)
	if received != 500<<10 || !fin {
		t.Fatalf("client received %d fin=%v", received, fin)
	}
}

func TestAbortSendsRST(t *testing.T) {
	s, a, b := pairNet(t, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	var srv *Conn
	Listen(b, 80, cfg, func(sc *Conn) { srv = sc })
	c := Dial(a, b.Addr(), 80, cfg)
	c.OnEstablished = func() { c.Abort() }
	s.RunFor(5 * time.Second)
	if c.State() != StateClosed {
		t.Error("client not closed after abort")
	}
	if srv == nil || srv.State() != StateClosed {
		t.Error("server did not tear down on RST")
	}
}

func TestWriteMsgDelivery(t *testing.T) {
	s, a, b := pairNet(t, netem.LinkConfig{RateBps: 20e6, Delay: netem.ConstantDelay(10 * time.Millisecond)})
	cfg := DefaultConfig()
	cfg.TLSRounds = 1
	type req struct{ ID, Size int }
	var gotMsgs []req
	var gotBytes []int
	Listen(b, 443, cfg, func(sc *Conn) {
		sc.OnMsg = func(m any) { gotMsgs = append(gotMsgs, m.(req)) }
		sc.OnData = func(n int, fin bool) { gotBytes = append(gotBytes, n) }
	})
	c := Dial(a, b.Addr(), 443, cfg)
	c.OnEstablished = func() {
		c.WriteMsg(300, req{ID: 1, Size: 5000})
		c.WriteMsg(300, req{ID: 2, Size: 7000})
		c.Write(1000)
	}
	s.RunFor(10 * time.Second)
	if len(gotMsgs) != 2 || gotMsgs[0].ID != 1 || gotMsgs[1].ID != 2 {
		t.Fatalf("msgs = %+v", gotMsgs)
	}
	total := 0
	for _, n := range gotBytes {
		total += n
	}
	if total != 1600 {
		t.Fatalf("delivered %d bytes, want 1600", total)
	}
}

func TestWriteMsgSurvivesLoss(t *testing.T) {
	s := sim.NewScheduler(43)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	ab := nw.AddLink(a, b, netem.LinkConfig{
		RateBps: 20e6, Delay: netem.ConstantDelay(10 * time.Millisecond),
		Loss: &netem.BernoulliLoss{P: 0.05, Rng: s.RNG().Stream("l")},
	})
	ba := nw.AddLink(b, a, netem.LinkConfig{RateBps: 20e6, Delay: netem.ConstantDelay(10 * time.Millisecond)})
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)
	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	var got []int
	Listen(b, 80, cfg, func(sc *Conn) {
		sc.OnMsg = func(m any) { got = append(got, m.(int)) }
	})
	c := Dial(a, b.Addr(), 80, cfg)
	c.OnEstablished = func() {
		for i := 0; i < 50; i++ {
			c.WriteMsg(2000, i)
		}
	}
	s.RunFor(60 * time.Second)
	if len(got) != 50 {
		t.Fatalf("got %d msgs, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("msgs out of order at %d: %v", i, v)
		}
	}
}

// The receiver's message index, driven segment by segment: reordered,
// duplicated and retransmitted segments that carry messages. Each case
// lists the segments in arrival order and the exact OnData/OnMsg
// interleaving they must produce — bytes before an anchor, then its
// message, then the rest — with every message delivered once and the
// first copy of a message winning over a retransmitted one.
func TestMsgDeliveryInterleaving(t *testing.T) {
	type seg struct {
		seq, n uint64
		fin    bool
		msgs   []AppMsg
	}
	m := func(off uint64, v string) AppMsg { return AppMsg{Off: off, Msg: v} }
	for _, tc := range []struct {
		name string
		segs []seg
		want string
	}{
		{"in order", []seg{
			{seq: 0, n: 100, msgs: []AppMsg{m(0, "a")}},
			{seq: 100, n: 100, msgs: []AppMsg{m(150, "b")}},
		}, "a d100 | d50 b d50"},
		{"several anchors in one segment", []seg{
			{seq: 0, n: 300, msgs: []AppMsg{m(50, "a"), m(120, "b"), m(299, "c")}},
		}, "d50 a d70 b d179 c d1"},
		{"reordered", []seg{
			{seq: 100, n: 100, msgs: []AppMsg{m(150, "b")}},
			{seq: 0, n: 100, msgs: []AppMsg{m(0, "a")}},
		}, "| a d150 b d50"},
		{"hole filled last", []seg{
			{seq: 200, n: 100, msgs: []AppMsg{m(200, "c")}},
			{seq: 0, n: 100, msgs: []AppMsg{m(0, "a")}},
			{seq: 100, n: 100, msgs: []AppMsg{m(100, "b")}},
		}, "| a d100 | b d100 c d100"},
		{"duplicate after delivery", []seg{
			{seq: 0, n: 100, msgs: []AppMsg{m(10, "a")}},
			{seq: 0, n: 100, msgs: []AppMsg{m(10, "a")}},
			{seq: 100, n: 100},
		}, "d10 a d90 | | d100"},
		{"retransmitted while pending: first copy wins", []seg{
			{seq: 100, n: 100, msgs: []AppMsg{m(100, "b")}},
			{seq: 100, n: 100, msgs: []AppMsg{m(100, "b-retx")}},
			{seq: 0, n: 100},
		}, "| | d100 b d100"},
		{"coalesced retransmission over a pending message", []seg{
			{seq: 100, n: 100, msgs: []AppMsg{m(150, "b")}},
			{seq: 0, n: 200, msgs: []AppMsg{m(0, "a"), m(150, "b-retx")}},
		}, "| a d150 b d50"},
		{"partial overlap", []seg{
			{seq: 0, n: 100},
			{seq: 50, n: 100, msgs: []AppMsg{m(60, "x"), m(120, "y")}},
		}, "d100 | d20 y d30"},
		{"message at the FIN", []seg{
			{seq: 100, n: 50, fin: true, msgs: []AppMsg{m(120, "z")}},
			{seq: 0, n: 100, msgs: []AppMsg{m(30, "w")}},
		}, "| d30 w d90 z d30 fin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler(1)
			cfg := DefaultConfig()
			cfg.TLSRounds = 0
			c := NewConn(ConnParams{Sched: s, Transmit: func(*netem.Packet) {}, Config: cfg})
			var log []string
			c.OnData = func(n int, fin bool) {
				log = append(log, fmt.Sprintf("d%d", n))
				if fin {
					log = append(log, "fin")
				}
			}
			c.OnMsg = func(msg any) { log = append(log, msg.(string)) }
			c.HandleSegment(&netem.Packet{Payload: &Segment{Flags: FlagSYN, Wnd: 65535}})
			c.HandleSegment(&netem.Packet{Payload: &Segment{Flags: FlagACK, Wnd: 65535}})
			if c.State() != StateEstablished {
				t.Fatalf("state %v after the handshake", c.State())
			}
			for i, sg := range tc.segs {
				if i > 0 {
					log = append(log, "|")
				}
				flags := FlagACK
				if sg.fin {
					flags |= FlagFIN
				}
				c.HandleSegment(&netem.Packet{Payload: &Segment{Flags: flags, Seq: sg.seq, Len: int(sg.n), Wnd: 65535, Msgs: sg.msgs}})
			}
			if got := strings.Join(log, " "); got != tc.want {
				t.Errorf("delivered %q, want %q", got, tc.want)
			}
			if len(c.msgsIn) != 0 {
				t.Errorf("%d messages still held after the stream is complete", len(c.msgsIn))
			}
		})
	}
}

// A duplicate SYN on the passive side (the client retried while our
// SYN-ACK was lost) re-sends the SYN-ACK and moves the one retry timer;
// it must not start a second retry chain beside the first. With the SYN
// repeated at 0.5 s and no SYN-ACK ever answered, one chain backs off
// 1, 2, 4 s from the latest send.
func TestDuplicateSYNKeepsOneRetryChain(t *testing.T) {
	s := sim.NewScheduler(1)
	var sent []time.Duration
	c := NewConn(ConnParams{
		Sched:      s,
		Transmit:   func(pkt *netem.Packet) { sent = append(sent, time.Duration(s.Now())) },
		LocalAddr:  netem.MustParseAddr("10.0.0.2"),
		LocalPort:  80,
		RemoteAddr: netem.MustParseAddr("10.0.0.1"),
		RemotePort: 40000,
		Config:     DefaultConfig(),
	})
	syn := func() { c.HandleSegment(&netem.Packet{Payload: &Segment{Flags: FlagSYN, Wnd: 65535}}) }
	syn()
	s.At(sim.Time(500*time.Millisecond), syn)
	s.RunFor(10 * time.Second)
	want := []time.Duration{0, 500 * time.Millisecond, 1500 * time.Millisecond, 3500 * time.Millisecond, 7500 * time.Millisecond}
	if fmt.Sprint(sent) != fmt.Sprint(want) {
		t.Errorf("SYN-ACKs sent at %v, want %v", sent, want)
	}
	if c.Stats.RTOs != 3 {
		t.Errorf("%d SYN-ACK retries by 10 s, want 3", c.Stats.RTOs)
	}
}
