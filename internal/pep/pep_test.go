package pep

import (
	"bytes"
	"testing"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/tcpsim"
)

// geoTopo builds client -(1ms)- modem -(GEO link, 280ms one-way)-
// teleport -(5ms)- server. The PEP lives in the modem, the classic
// client-side half of a distributed SatCom PEP: it answers handshakes
// locally and runs its own large-window loop across the GEO hop.
func geoTopo(t *testing.T, withPEP bool) (*sim.Scheduler, *netem.Node, *netem.Node, *Proxy) {
	t.Helper()
	s := sim.NewScheduler(5)
	nw := netem.New(s)
	client := nw.NewNode("client", netem.MustParseAddr("10.1.0.2"))
	modem := nw.NewNode("modem", netem.MustParseAddr("10.1.0.1"))
	teleport := nw.NewNode("teleport", netem.MustParseAddr("10.2.0.1"))
	server := nw.NewNode("server", netem.MustParseAddr("10.3.0.1"))

	lan := netem.LinkConfig{RateBps: 1e9, Delay: netem.ConstantDelay(time.Millisecond), QueueBytes: 2 << 20}
	sat := netem.LinkConfig{RateBps: 100e6, Delay: netem.ConstantDelay(280 * time.Millisecond), QueueBytes: 4 << 20}
	terr := netem.LinkConfig{RateBps: 1e9, Delay: netem.ConstantDelay(5 * time.Millisecond), QueueBytes: 2 << 20}
	c2m, m2c := nw.Connect(client, modem, lan)
	m2t, t2m := nw.Connect(modem, teleport, sat)
	t2s, s2t := nw.Connect(teleport, server, terr)
	client.SetDefaultRoute(c2m)
	modem.AddRoute(client.Addr(), m2c)
	modem.SetDefaultRoute(m2t)
	teleport.AddRoute(client.Addr(), t2m)
	teleport.AddRoute(server.Addr(), t2s)
	server.SetDefaultRoute(s2t)

	var proxy *Proxy
	if withPEP {
		// Dual-PEP (I-PEP) deployment: proxies in the modem and at the
		// teleport. The GEO segment between them runs with buffers and a
		// fixed window engineered for the provisioned 100 Mbit/s x
		// 570 ms BDP, like commercial satellite PEPs.
		cfg := tcpsim.DefaultConfig()
		cfg.InitialRcvWnd = 16 << 20
		cfg.MaxRcvWnd = 64 << 20
		cfg.FastOpen = true
		cfg.NewCC = func(mss int) cc.CongestionController { return cc.NewFixed(8 << 20) }
		proxy = Attach(modem, cfg)
		Attach(teleport, cfg)
	}
	return s, client, server, proxy
}

func TestPEPSplitsAndRelaysFullTransfer(t *testing.T) {
	s, client, server, proxy := geoTopo(t, true)
	cfg := tcpsim.DefaultConfig()
	cfg.TLSRounds = 0

	received := 0
	fin := false
	tcpsim.Listen(server, 80, cfg, func(sc *tcpsim.Conn) {
		sc.OnData = func(n int, f bool) {
			received += n
			if f {
				fin = true
			}
		}
	})
	const total = 1 << 20
	c := tcpsim.Dial(client, server.Addr(), 80, cfg)
	c.OnEstablished = func() {
		c.Write(total)
		c.Close()
	}
	s.RunFor(120 * time.Second)

	if received != total || !fin {
		t.Fatalf("relayed %d/%d fin=%v", received, total, fin)
	}
	if proxy.Splits != 1 {
		t.Errorf("splits = %d, want 1", proxy.Splits)
	}
	if proxy.Relayed < total {
		t.Errorf("relayed bytes = %d", proxy.Relayed)
	}
}

func TestPEPAcceleratesTCPHandshakeButNotTLS(t *testing.T) {
	// TCP handshake terminates at the PEP (~560ms RTT to the teleport),
	// but the TLS rounds still traverse end-to-end. With TLS 1.2 the
	// client becomes ready after ~1 local RTT + 2 e2e RTTs.
	setup := func(withPEP bool) time.Duration {
		s, client, server, _ := geoTopo(t, withPEP)
		cfg := tcpsim.DefaultConfig() // TLS 1.2
		tcpsim.Listen(server, 443, cfg, nil)
		c := tcpsim.Dial(client, server.Addr(), 443, cfg)
		s.RunFor(30 * time.Second)
		if !c.Ready() {
			t.Fatalf("pep=%v: handshake incomplete", withPEP)
		}
		return c.SetupTime()
	}
	with := setup(true)
	without := setup(false)
	// Without PEP: 3 e2e RTTs (~574ms each) ≈ 1.72s+.
	if without < 1600*time.Millisecond {
		t.Errorf("no-PEP TLS1.2 setup %v suspiciously fast", without)
	}
	// With PEP the TCP handshake is local: roughly one e2e RTT saved.
	if with > without-400*time.Millisecond {
		t.Errorf("PEP saving too small: %v vs %v", with, without)
	}
}

func TestPEPImprovesHighBDPThroughput(t *testing.T) {
	// The e2e receive window (max 6MB) binds at 560ms RTT; the PEP's
	// split loops (each with its own rwnd) recover throughput.
	run := func(withPEP bool) float64 {
		s, client, server, _ := geoTopo(t, withPEP)
		cfg := tcpsim.DefaultConfig()
		cfg.TLSRounds = 0
		cfg.MaxRcvWnd = 2 << 20 // tighten to make the effect unmistakable
		received := 0
		var start, end sim.Time
		// Client connects; the server pushes the payload back on the
		// same connection (download direction).
		const total = 64 << 20
		tcpsim.Listen(server, 8080, cfg, func(sc *tcpsim.Conn) {
			sc.OnEstablished = func() {
				sc.Write(total)
				sc.Close()
			}
		})
		c := tcpsim.Dial(client, server.Addr(), 8080, cfg)
		c.OnEstablished = func() { start = s.Now() }
		c.OnData = func(n int, f bool) {
			received += n
			if f {
				end = s.Now()
			}
		}
		s.RunFor(600 * time.Second)
		if received != total {
			t.Fatalf("pep=%v: received %d/%d", withPEP, received, total)
		}
		return float64(total) * 8 / end.Sub(start).Seconds()
	}
	with := run(true)
	without := run(false)
	if with <= without*1.5 {
		t.Errorf("PEP throughput %.1f Mbit/s, no-PEP %.1f: expected a clear win", with/1e6, without/1e6)
	}
}

func TestPEPPassesQUICThrough(t *testing.T) {
	s, client, server, proxy := geoTopo(t, true)
	cep := quic.NewEndpoint(client, 5000)
	sep := quic.NewEndpoint(server, 443)
	received := 0
	done := false
	sep.Listen(quic.Config{}, func(c *quic.Connection) {
		c.OnStream = func(st *quic.Stream) {
			st.OnData = func(d []byte, fin bool) {
				received += len(d)
				if fin {
					done = true
				}
			}
		}
	})
	dialed := s.Now()
	var handshake time.Duration
	conn := cep.Dial(server.Addr(), 443, quic.Config{})
	conn.OnEstablished = func() {
		handshake = s.Now().Sub(dialed)
		st := conn.OpenStream()
		st.WriteZeroes(256 << 10)
		st.Close()
	}
	s.RunFor(60 * time.Second)
	if !done || received != 256<<10 {
		t.Fatalf("QUIC through PEP: %d bytes done=%v", received, done)
	}
	if proxy.Splits != 0 {
		t.Errorf("PEP split %d QUIC flows; must not touch UDP", proxy.Splits)
	}
	// QUIC's handshake had to pay the full e2e RTT: no PEP assist.
	if handshake < 560*time.Millisecond {
		t.Errorf("QUIC handshake took %v, want >= 570ms e2e", handshake)
	}
}

// TestAttachOnObservedNetworkRegistersBeforeSplit: a proxy on an observed
// network reports from the moment it is attached, so a proxy no flow ever
// crosses still exports its pep.* keys (as zeros) and its trace subject.
func TestAttachOnObservedNetworkRegistersBeforeSplit(t *testing.T) {
	nw := netem.New(sim.NewScheduler(1))
	sink := obs.NewSink()
	nw.Observe(sink)
	Attach(nw.NewNode("teleport", netem.MustParseAddr("10.2.0.1")), tcpsim.Config{})

	snap := sink.Registry().Snapshot()
	for _, key := range []string{"pep.splits", "pep.relayed_bytes", "pep.active_flows.max"} {
		if v, ok := snap[key]; !ok || v != 0 {
			t.Errorf("%s = %v (registered %v), want a registered 0", key, v, ok)
		}
	}
	col := obs.NewCollector()
	col.Add("shard", sink)
	if !bytes.Contains(col.ExportTraceBinary(), []byte("pep/teleport")) {
		t.Error(`trace subject "pep/teleport" not registered at attach`)
	}
}

// TestBackpressureWithZeroConfig: a proxy built from a zero tcpsim.Config
// runs its legs with tcpsim's default 6 MiB receive window, and that is
// the window its backpressure must close. A fast client uploads through
// the proxy to a server behind a thin link; the relay backlog may
// overshoot its maxBacklog by at most one window in flight, never grow with
// the transfer.
func TestBackpressureWithZeroConfig(t *testing.T) {
	s := sim.NewScheduler(3)
	nw := netem.New(s)
	client := nw.NewNode("client", netem.MustParseAddr("10.1.0.2"))
	proxyNode := nw.NewNode("pep", netem.MustParseAddr("10.1.0.1"))
	server := nw.NewNode("server", netem.MustParseAddr("10.3.0.1"))
	fast := netem.LinkConfig{RateBps: 1e9, Delay: netem.ConstantDelay(time.Millisecond), QueueBytes: 4 << 20}
	thin := netem.LinkConfig{RateBps: 20e6, Delay: netem.ConstantDelay(5 * time.Millisecond), QueueBytes: 256 << 10}
	c2p, p2c := nw.Connect(client, proxyNode, fast)
	p2s, s2p := nw.Connect(proxyNode, server, thin)
	client.SetDefaultRoute(c2p)
	proxyNode.AddRoute(client.Addr(), p2c)
	proxyNode.AddRoute(server.Addr(), p2s)
	server.SetDefaultRoute(s2p)

	proxy := Attach(proxyNode, tcpsim.Config{})
	proxy.maxBacklog = 512 << 10
	window := int(tcpsim.DefaultConfig().MaxRcvWnd)

	const total = 16 << 20
	received := 0
	tcpsim.Listen(server, 80, tcpsim.Config{}, func(sc *tcpsim.Conn) {
		sc.OnData = func(n int, _ bool) { received += n }
	})
	c := tcpsim.Dial(client, server.Addr(), 80, tcpsim.Config{})
	c.OnEstablished = func() {
		c.Write(total)
		c.Close()
	}
	peak := 0
	var sample func()
	sample = func() {
		for _, ref := range proxy.legs {
			peak = max(peak, ref.flow.clientLeg.Backlog(), ref.flow.serverLeg.Backlog())
		}
		s.After(5*time.Millisecond, sample)
	}
	s.After(0, sample)
	s.RunFor(20 * time.Second)

	if received != total {
		t.Fatalf("server received %d/%d bytes", received, total)
	}
	if peak <= proxy.maxBacklog/2 {
		t.Fatalf("relay backlog peaked at %d bytes: the thin link never pressed back", peak)
	}
	if limit := proxy.maxBacklog + window; peak > limit {
		t.Errorf("relay backlog peaked at %d bytes, want <= maxBacklog + window = %d", peak, limit)
	}
}
