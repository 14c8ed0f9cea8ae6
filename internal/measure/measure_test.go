package measure

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/nat"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/pep"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/tcpsim"
)

// testPath builds client - r1 - r2 - server with 10ms hops and optional
// NAT at r1 and PEP at r2.
func testPath(t *testing.T, withNAT, withPEP bool) (*sim.Scheduler, *netem.Node, *netem.Node, *netem.Network) {
	t.Helper()
	s, nw, client, _, _, server := testHops(withNAT, withPEP)
	return s, client, server, nw
}

// testHops is testPath that also returns the routers r1 and r2.
func testHops(withNAT, withPEP bool) (s *sim.Scheduler, nw *netem.Network, client, r1, r2, server *netem.Node) {
	s = sim.NewScheduler(101)
	nw = netem.New(s)
	client = nw.NewNode("client", netem.MustParseAddr("192.168.1.2"))
	r1 = nw.NewNode("r1", netem.MustParseAddr("192.168.1.1"))
	r2 = nw.NewNode("r2", netem.MustParseAddr("100.64.0.1"))
	server = nw.NewNode("server", netem.MustParseAddr("8.8.8.8"))

	d := netem.LinkConfig{RateBps: 200e6, Delay: netem.ConstantDelay(10 * time.Millisecond), QueueBytes: 1 << 20}
	c2r1, r12c := nw.Connect(client, r1, d)
	r12r2, r22r1 := nw.Connect(r1, r2, d)
	r22s, s2r2 := nw.Connect(r2, server, d)
	client.SetDefaultRoute(c2r1)
	r1.AddRoute(client.Addr(), r12c)
	r1.SetDefaultRoute(r12r2)
	r2.SetDefaultRoute(r22s)
	r2.AddPrefixRoute(netem.MustParseAddr("100.64.0.7"), 32, r22r1)
	r2.AddPrefixRoute(netem.MustParseAddr("192.168.0.0"), 16, r22r1)
	server.SetDefaultRoute(s2r2)

	if withNAT {
		r1.AttachDevice(nat.New(netem.MustParseAddr("100.64.0.7"), nat.PrefixInside(netem.MustParseAddr("192.168.0.0"), 16)))
	}
	if withPEP {
		pep.Attach(r2, tcpsim.DefaultConfig())
	}
	server.EchoResponder = true
	return s, nw, client, r1, r2, server
}

func TestPingBasic(t *testing.T) {
	s, client, server, _ := testPath(t, false, false)
	p := NewProber(client)
	var results []PingResult
	// Three echoes back to back, each sent when the previous one lands.
	var echo func(rtt time.Duration, ok bool)
	echo = func(rtt time.Duration, ok bool) {
		results = append(results, PingResult{RTT: rtt, OK: ok})
		if len(results) < 3 {
			p.Echo(server.Addr(), echo)
		}
	}
	p.Echo(server.Addr(), echo)
	s.RunFor(time.Minute)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if !r.OK {
			t.Error("ping lost on clean path")
		}
		if r.RTT < 60*time.Millisecond || r.RTT > 61*time.Millisecond {
			t.Errorf("RTT = %v, want ~60ms", r.RTT)
		}
	}
}

func TestPingThroughNAT(t *testing.T) {
	s, client, server, _ := testPath(t, true, false)
	p := NewProber(client)
	ok := false
	p.Echo(server.Addr(), func(_ time.Duration, echoed bool) { ok = echoed })
	s.RunFor(time.Minute)
	if !ok {
		t.Fatal("ping through NAT failed")
	}
}

func TestPingTimeoutOnBlackhole(t *testing.T) {
	s, client, _, _ := testPath(t, false, false)
	p := NewProber(client)
	answered, ok := false, false
	// 203.0.113.1 has no route at r2 -> unreachable comes back, but to a
	// *blackholed* address we need a silent drop: use a link-down window.
	// Simplest true blackhole: address routed nowhere beyond r2 returns
	// dest-unreachable, which is still "not OK" for ping.
	p.Echo(netem.MustParseAddr("203.0.113.1"), func(_ time.Duration, echoed bool) { answered, ok = true, echoed })
	s.RunFor(time.Minute)
	if !answered {
		t.Fatal("echo callback never ran")
	}
	if ok {
		t.Fatal("ping to unroutable address succeeded")
	}
}

func TestMonitorCadence(t *testing.T) {
	s, client, server, _ := testPath(t, false, false)
	p := NewProber(client)
	count := 0
	p.Monitor([]netem.Addr{server.Addr()}, 5*time.Minute, sim.Time(time.Hour), func(r PingResult) {
		if r.OK {
			count++
		}
	})
	s.RunUntil(sim.Time(time.Hour + time.Minute))
	// 12 rounds/hour x 3 probes = 36.
	if count != 36 {
		t.Fatalf("monitor delivered %d samples, want 36", count)
	}
}

// A non-positive interval would re-arm the round at one instant forever
// (`pingmon -interval 0` hung): Monitor refuses it before sending a probe.
func TestMonitorRefusesNonPositiveInterval(t *testing.T) {
	_, client, server, _ := testPath(t, false, false)
	for _, interval := range []time.Duration{0, -time.Minute} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Monitor accepted interval %v", interval)
				}
			}()
			NewProber(client).Monitor([]netem.Addr{server.Addr()}, interval, sim.Time(time.Hour), func(PingResult) {
				t.Errorf("interval %v: a probe was sent", interval)
			})
		}()
	}
}

func TestTracerouteDiscoversPath(t *testing.T) {
	s, client, server, _ := testPath(t, false, false)
	p := NewProber(client)
	var hops []Hop
	p.Traceroute(server.Addr(), func(hs []Hop) { hops = hs })
	s.RunFor(time.Minute)
	if len(hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(hops))
	}
	if hops[0].Addr != netem.MustParseAddr("192.168.1.1") {
		t.Errorf("hop1 = %v", hops[0].Addr)
	}
	if hops[1].Addr != netem.MustParseAddr("100.64.0.1") {
		t.Errorf("hop2 = %v", hops[1].Addr)
	}
	if !hops[2].Reached || hops[2].Addr != server.Addr() {
		t.Errorf("final hop = %+v", hops[2])
	}
}

func TestTraceboxDetectsNAT(t *testing.T) {
	s, client, server, _ := testPath(t, true, false)
	p := NewProber(client)
	var hops []TraceboxHop
	p.Tracebox(server.Addr(), func(hs []TraceboxHop) { hops = hs })
	s.RunFor(time.Minute)
	if len(hops) < 2 {
		t.Fatalf("hops = %d", len(hops))
	}
	// Hop 1 (the NAT itself) quotes pre-NAT headers; from hop 2 onward
	// the embedded source is restored on the way back (RFC 5508) but
	// the embedded checksum keeps the post-NAT value — the residue.
	if len(hops[0].Changes) != 0 {
		t.Errorf("hop1 should quote the original packet, got %+v", hops[0].Changes)
	}
	h2 := hops[1]
	found := map[string]bool{}
	for _, ch := range h2.Changes {
		found[ch.Field] = true
	}
	if !found["udp.checksum"] {
		t.Errorf("hop2 changes = %+v, want a udp.checksum residue", h2.Changes)
	}
	if found["ip.src"] {
		t.Errorf("hop2 ip.src should be restored by the NAT: %+v", h2.Changes)
	}
}

func TestTraceboxCleanPathNoChanges(t *testing.T) {
	s, client, server, _ := testPath(t, false, false)
	p := NewProber(client)
	var hops []TraceboxHop
	p.Tracebox(server.Addr(), func(hs []TraceboxHop) { hops = hs })
	s.RunFor(time.Minute)
	for _, h := range hops {
		if len(h.Changes) != 0 {
			t.Errorf("hop %d reports changes on a clean path: %+v", h.TTL, h.Changes)
		}
	}
}

func TestDetectPEPPresent(t *testing.T) {
	s, client, server, _ := testPath(t, false, true)
	cfg := tcpsim.DefaultConfig()
	tcpsim.Listen(server, 80, cfg, nil)
	p := NewProber(client)
	var res PEPProbe
	gotRes := false
	p.DetectPEP(server.Addr(), func(r PEPProbe) { res, gotRes = r, true })
	s.RunFor(2 * time.Minute)
	if !gotRes {
		t.Fatal("no result")
	}
	if !res.ProxyDetected() {
		t.Errorf("PEP not detected: %+v", res)
	}
	if res.SynAckAtTTL != 2 {
		t.Errorf("SYN-ACK at TTL %d, want 2 (the r2 proxy)", res.SynAckAtTTL)
	}
}

func TestDetectPEPAbsent(t *testing.T) {
	s, client, server, _ := testPath(t, false, false)
	cfg := tcpsim.DefaultConfig()
	tcpsim.Listen(server, 80, cfg, nil)
	p := NewProber(client)
	var res PEPProbe
	gotRes := false
	p.DetectPEP(server.Addr(), func(r PEPProbe) { res, gotRes = r, true })
	s.RunFor(2 * time.Minute)
	if !gotRes {
		t.Fatal("no result")
	}
	if res.ProxyDetected() {
		t.Errorf("phantom PEP: %+v", res)
	}
	if res.SynAckAtTTL != res.PathHops {
		t.Errorf("handshake should complete at the destination: %+v", res)
	}
}

func TestSpeedtestMeasuresLinkRate(t *testing.T) {
	// Bottleneck 50/10 Mbit/s between r1 and r2.
	s, client, server, nw := testPath(t, false, false)
	// Tighten the middle links: testHops connects client-r1 first and
	// r1-r2 second, so they are the third and fourth link.
	for _, l := range nw.Links()[2:4] {
		l.SetRate(50e6)
	}
	cfg := DefaultSpeedtestConfig()
	NewSpeedtestServer(server, cfg.TCP)
	p := NewProber(client)
	var res SpeedtestResult
	doneAt := sim.Time(0)
	RunSpeedtest(p, []netem.Addr{server.Addr()}, cfg, func(r SpeedtestResult) {
		res = r
		doneAt = s.Now()
	})
	s.RunFor(2 * time.Minute)
	if doneAt == 0 {
		t.Fatal("speedtest did not finish")
	}
	if res.Server != server.Addr() {
		t.Errorf("server = %v", res.Server)
	}
	if res.DownloadMbps < 30 || res.DownloadMbps > 50 {
		t.Errorf("download = %.1f Mbit/s, want ~40-48 on a 50 Mbit/s bottleneck", res.DownloadMbps)
	}
	if res.UploadMbps < 30 || res.UploadMbps > 50 {
		t.Errorf("upload = %.1f Mbit/s", res.UploadMbps)
	}
	if res.PingRTT < 60*time.Millisecond || res.PingRTT > 61*time.Millisecond {
		t.Errorf("ping = %v", res.PingRTT)
	}
}

// A world that starts inside an outage loses every server-selection ping
// of the first round; the test pings again once they have timed out and
// measures as usual. An outage that outlasts every round still ends the
// test, with the zero result.
func TestSpeedtestSurvivesOutageAtStart(t *testing.T) {
	for _, c := range []struct {
		outage time.Duration
		want   bool
	}{{time.Second, true}, {time.Hour, false}} {
		s, nw, client, r1, _, server := testHops(false, false)
		// The client's uplink is down for the first c.outage.
		end := sim.Time(c.outage)
		client.SetDefaultRoute(nw.AddLink(client, r1, netem.LinkConfig{
			RateBps: 200e6, Delay: netem.ConstantDelay(10 * time.Millisecond), QueueBytes: 1 << 20,
			Down: func(now sim.Time) bool { return now < end },
		}))
		cfg := DefaultSpeedtestConfig()
		NewSpeedtestServer(server, cfg.TCP)
		var res SpeedtestResult
		finished := false
		RunSpeedtest(NewProber(client), []netem.Addr{server.Addr()}, cfg, func(r SpeedtestResult) { res, finished = r, true })
		s.RunFor(2 * time.Minute)
		if !finished {
			t.Fatalf("outage %v: speedtest did not finish", c.outage)
		}
		if got := res.Server == server.Addr() && res.DownloadMbps > 0 && res.UploadMbps > 0; got != c.want {
			t.Errorf("outage %v: result %+v, want measured = %v", c.outage, res, c.want)
		}
		if !c.want && res.At != sim.Time(selectionRounds*PingTimeout) {
			t.Errorf("outage %v: gave up at %v, want after %d rounds of %v", c.outage, res.At, selectionRounds, PingTimeout)
		}
	}
}

func TestSpeedtestPicksNearestServer(t *testing.T) {
	s, nw, client, _, r2, near := testHops(false, false)
	far := nw.NewNode("far", netem.MustParseAddr("9.9.9.9"))
	f1, f2 := nw.Connect(r2, far, netem.LinkConfig{Delay: netem.ConstantDelay(100 * time.Millisecond)})
	r2.AddRoute(far.Addr(), f1)
	far.SetDefaultRoute(f2)
	far.EchoResponder = true
	stCfg := DefaultSpeedtestConfig()
	NewSpeedtestServer(near, stCfg.TCP)
	NewSpeedtestServer(far, stCfg.TCP)

	p := NewProber(client)
	var res SpeedtestResult
	RunSpeedtest(p, []netem.Addr{far.Addr(), near.Addr()}, stCfg, func(r SpeedtestResult) { res = r })
	s.RunFor(2 * time.Minute)
	if res.Server != near.Addr() {
		t.Errorf("selected %v, want the near server", res.Server)
	}
}

func TestH3DownloadAndUpload(t *testing.T) {
	s, client, server, _ := testPath(t, false, false)
	srv := NewH3Server(server, quic.Config{})

	var down TransferResult
	H3Transfer(client, srv, true, 4<<20, quic.Config{}, func(r TransferResult) { down = r })
	s.RunFor(2 * time.Minute)
	if !down.Completed || down.Bytes != 4<<20 {
		t.Fatalf("download: %+v", down)
	}
	if down.GoodputMbps < 50 {
		t.Errorf("download goodput %.1f Mbit/s", down.GoodputMbps)
	}
	if len(down.RTTs.Samples) == 0 {
		t.Error("no server-side RTT samples for download")
	}
	if len(down.ReceiverCapture.Received) == 0 {
		t.Error("no client-side capture for download")
	}

	var up TransferResult
	H3Transfer(client, srv, false, 2<<20, quic.Config{}, func(r TransferResult) { up = r })
	s.RunFor(2 * time.Minute)
	if !up.Completed {
		t.Fatalf("upload incomplete")
	}
	if len(up.RTTs.Samples) == 0 {
		t.Error("no client-side RTT samples for upload")
	}
	if len(up.ReceiverCapture.Received) == 0 {
		t.Error("no server-side capture for upload")
	}
}

// The shared server's OnConn hook belongs to the session that set it only
// until the connection it dialed is accepted: every workload, in both
// directions, must have handed it back by the time its handshake is done,
// and must report the connection the hook caught.
func TestSessionReleasesServerHookOnAccept(t *testing.T) {
	for _, download := range []bool{true, false} {
		s, client, server, _ := testPath(t, false, false)
		srv := NewH3Server(server, quic.Config{})
		var bulk TransferResult
		H3Transfer(client, srv, download, 1<<20, quic.Config{}, func(r TransferResult) { bulk = r })
		if srv.OnConn == nil {
			t.Fatalf("download=%v: bulk transfer did not hook the server", download)
		}
		s.RunFor(time.Second)
		if srv.OnConn != nil {
			t.Errorf("download=%v: bulk transfer still holds the hook a second in", download)
		}
		s.RunFor(time.Minute)
		var msgs Session
		MessageSession(client, srv, download, 2*time.Second, quic.Config{}, func(r Session) { msgs = r })
		s.RunFor(time.Second)
		if srv.OnConn != nil {
			t.Errorf("download=%v: message session still holds the hook a second in", download)
		}
		s.RunFor(time.Minute)
		if !bulk.Completed || bulk.Server == nil || msgs.Server == nil || msgs.Server == bulk.Server {
			t.Errorf("download=%v: bulk completed=%v, server connections %p and %p", download, bulk.Completed, bulk.Server, msgs.Server)
		}
		if len(msgs.RTTs.Samples) == 0 || len(msgs.ReceiverCapture.Received) == 0 {
			t.Errorf("download=%v: message session recorded %d RTT samples, %d packets", download, len(msgs.RTTs.Samples), len(msgs.ReceiverCapture.Received))
		}
	}
}

func TestMessageWorkloadRate(t *testing.T) {
	s, client, server, _ := testPath(t, false, false)
	srv := NewH3Server(server, quic.Config{})
	var res Session
	finished := false
	MessageSession(client, srv, false, 10*time.Second, quic.Config{}, func(r Session) {
		res = r
		finished = true
	})
	s.RunFor(time.Minute)
	if !finished {
		t.Fatal("session did not finish")
	}
	// 25 msg/s x 10 s of 5-25 kB: the server must have received about
	// 250 x ~15 kB ≈ 3.75 MB of payload.
	var bytes uint64
	if res.Server == nil {
		t.Fatal("no server connection")
	}
	bytes = res.Server.Stats.BytesReceived
	lo, hi := uint64(2<<20), uint64(8<<20)
	if bytes < lo || bytes > hi {
		t.Errorf("server received %d bytes, want in [%d, %d]", bytes, lo, hi)
	}
	if len(res.RTTs.Samples) == 0 {
		t.Error("no RTT samples")
	}
	// Mean bitrate ~3 Mbit/s, far below capacity: RTT must stay near
	// the idle 60ms.
	med := median(res.RTTs.Milliseconds())
	if med < 55 || med > 110 {
		t.Errorf("median message RTT %.1fms, want near path RTT", med)
	}
}

// A message upload stream carries no request header — its bytes are all
// zero — and the server used to stay in header mode on it, appending
// every 5-25 kB message into a buffer chunk by chunk. Streams without a
// known request are counted and dropped: the session must allocate far
// less than the payload it moves.
func TestMessageUploadStreamsAreNotBuffered(t *testing.T) {
	s, client, server, _ := testPath(t, false, false)
	srv := NewH3Server(server, quic.Config{})
	var res Session
	MessageSession(client, srv, false, 10*time.Second, quic.Config{}, func(r Session) {
		res = r
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.RunFor(time.Minute)
	runtime.ReadMemStats(&m1)
	if res.Server == nil || res.Server.Stats.BytesReceived < 2<<20 {
		t.Fatal("session did not move its payload")
	}
	payload := float64(res.Server.Stats.BytesReceived)
	if ratio := float64(m1.TotalAlloc-m0.TotalAlloc) / payload; ratio > 0.5 {
		t.Errorf("%.2f heap bytes allocated per payload byte received, want < 0.5", ratio)
	} else {
		t.Logf("%.2f heap bytes allocated per payload byte received", ratio)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// A message session whose duration the request cannot carry in its 16 bits
// of whole seconds, or a negative one, is refused at the call, naming the
// argument, instead of wrapping. A bulk transfer of no bytes, or fewer,
// still runs: its logs are sized at no less than nothing.
func TestWorkloadInputs(t *testing.T) {
	msgs := func(download bool, dur time.Duration) func(*netem.Node, *H3Server) {
		return func(client *netem.Node, srv *H3Server) {
			MessageSession(client, srv, download, dur, quic.Config{}, func(Session) {})
		}
	}
	bulk := func(download bool, size int) func(*netem.Node, *H3Server) {
		return func(client *netem.Node, srv *H3Server) {
			H3Transfer(client, srv, download, size, quic.Config{}, func(TransferResult) {})
		}
	}
	for _, tc := range []struct {
		name string
		run  func(*netem.Node, *H3Server)
		want string // in the panic; "" runs
	}{
		{"negative dur", msgs(false, -time.Second), "dur -1s"},
		{"download dur past 16 bits", msgs(true, 1<<16*time.Second), "dur 18h12m16s"},
		{"download of nothing", bulk(true, 0), ""},
		{"upload of nothing", bulk(false, 0), ""},
		{"download of less than nothing", bulk(true, -1), ""},
		{"upload of less than nothing", bulk(false, -1), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, client, server, _ := testPath(t, false, false)
			srv := NewH3Server(server, quic.Config{})
			var got string
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
				}()
				tc.run(client, srv)
				s.RunFor(20 * time.Second)
			}()
			switch {
			case tc.want == "" && got != "":
				t.Fatalf("panicked: %s", got)
			case tc.want != "" && !strings.Contains(got, tc.want):
				t.Fatalf("panic %q, want one naming %q", got, tc.want)
			}
		})
	}
}
