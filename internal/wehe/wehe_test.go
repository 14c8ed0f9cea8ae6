package wehe

import (
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/tcpsim"
)

func testbed(t *testing.T, shaped bool, shapeMbps float64, targetPort uint16) (*sim.Scheduler, *netem.Node, *netem.Node) {
	t.Helper()
	s := sim.NewScheduler(55)
	nw := netem.New(s)
	client := nw.NewNode("client", netem.MustParseAddr("10.0.0.2"))
	mid := nw.NewNode("mid", netem.MustParseAddr("10.0.0.1"))
	server := nw.NewNode("server", netem.MustParseAddr("8.8.8.8"))
	access := netem.LinkConfig{RateBps: 100e6, Delay: netem.ConstantDelay(15 * time.Millisecond), QueueBytes: 2 << 20}
	c2m, m2c := nw.Connect(client, mid, access)
	m2s, s2m := nw.Connect(mid, server, access)
	client.SetDefaultRoute(c2m)
	mid.AddRoute(client.Addr(), m2c)
	mid.AddRoute(server.Addr(), m2s)
	server.SetDefaultRoute(s2m)
	if shaped {
		mid.AttachDevice(&netem.TokenBucketShaper{
			RateBps:    shapeMbps * 1e6,
			BurstBytes: 64 << 10,
			Match: func(pkt *netem.Packet) bool {
				// Throttle the service port in both directions.
				return pkt.SrcPort == targetPort || pkt.DstPort == targetPort
			},
		})
	}
	return s, client, server
}

func TestDefaultServices(t *testing.T) {
	rng := sim.NewRNG(1).Stream("svc")
	traces := DefaultServices(rng)
	if len(traces) != 22 {
		t.Fatalf("services = %d, want 22 (the Wehe suite)", len(traces))
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		if seen[tr.Name] {
			t.Errorf("duplicate service %q", tr.Name)
		}
		seen[tr.Name] = true
		if len(tr.Bursts) == 0 {
			t.Errorf("%s: empty trace", tr.Name)
		}
		if tr.TotalBytes() <= 0 || tr.Duration() <= 0 {
			t.Errorf("%s: degenerate trace", tr.Name)
		}
		for i := 1; i < len(tr.Bursts); i++ {
			if tr.Bursts[i].Offset < tr.Bursts[i-1].Offset {
				t.Errorf("%s: burst %d at %v, before burst %d at %v; the server plays them in order", tr.Name, i, tr.Bursts[i].Offset, i-1, tr.Bursts[i-1].Offset)
			}
		}
	}
}

// The server plays a replay's bursts with one timer, each arming the next
// at its offset from the trace start: every burst goes out, ties included,
// and while the replay runs the server never holds more than one of them.
func TestServerPlaysEveryBurst(t *testing.T) {
	s, client, server := testbed(t, false, 0, 0)
	cfg := tcpsim.DefaultConfig()
	cfg.TLSRounds = 0
	tr := ServiceTrace{Name: "probe", Port: 7001, Bursts: []Burst{
		{0, 1000}, {200 * time.Millisecond, 2000}, {200 * time.Millisecond, 3000}, {time.Second, 4000},
	}}
	Server(server, []ServiceTrace{tr}, cfg)
	var res RunResult
	done := false
	Replay(client, server.Addr(), &tr, true, cfg, func(r RunResult) { res, done = r, true })
	peak := 0
	for s.Step() && !done {
		peak = max(peak, s.Pending())
	}
	if !done || res.Bytes != tr.TotalBytes() {
		t.Errorf("replay received %d bytes (done %v), want all %d", res.Bytes, done, tr.TotalBytes())
	}
	// Connection timers, the client's sampler and abort, the link hops and
	// one burst: 7, where arming all four bursts at the request made 9.
	if peak > 7 {
		t.Errorf("peak of %d pending timers during a 4-burst replay", peak)
	}
}

func TestServerRefusesDecreasingOffsets(t *testing.T) {
	_, _, server := testbed(t, false, 0, 0)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "back") {
			t.Errorf("recovered %q, want a panic naming the trace", msg)
		}
	}()
	Server(server, []ServiceTrace{{Name: "back", Port: 7001, Bursts: []Burst{{time.Second, 1}, {0, 1}}}}, tcpsim.DefaultConfig())
}

func TestNoDifferentiationOnNeutralPath(t *testing.T) {
	rng := sim.NewRNG(2).Stream("svc")
	traces := DefaultServices(rng)
	tr := &traces[0] // netflix, 15 Mbit/s
	s, client, server := testbed(t, false, 0, 0)
	cfg := tcpsim.DefaultConfig()
	cfg.TLSRounds = 0
	Server(server, traces, cfg)
	var det Detection
	got := false
	Detect(client, server.Addr(), tr, 3, cfg, func(d Detection) { det, got = d, true })
	s.RunFor(30 * time.Minute)
	if !got {
		t.Fatal("detection did not finish")
	}
	if det.Differentiated {
		t.Errorf("false positive on neutral path: %v", det)
	}
	if det.OriginalMbps <= 0 || det.RandomMbps <= 0 {
		t.Errorf("no throughput measured: %v", det)
	}
}

func TestDetectsShapedService(t *testing.T) {
	rng := sim.NewRNG(3).Stream("svc")
	traces := DefaultServices(rng)
	tr := &traces[0] // netflix at port 7001, 15 Mbit/s demand
	// Shape the service port to 2 Mbit/s: original runs starve.
	s, client, server := testbed(t, true, 2, tr.Port)
	cfg := tcpsim.DefaultConfig()
	cfg.TLSRounds = 0
	Server(server, traces, cfg)
	var det Detection
	got := false
	Detect(client, server.Addr(), tr, 3, cfg, func(d Detection) { det, got = d, true })
	s.RunFor(30 * time.Minute)
	if !got {
		t.Fatal("detection did not finish")
	}
	if !det.Differentiated {
		t.Errorf("shaper not detected: %v", det)
	}
	if det.OriginalMbps >= det.RandomMbps {
		t.Errorf("original should be slower than randomized: %v", det)
	}
}
