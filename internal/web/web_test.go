package web

import (
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/tcpsim"
)

func TestCorpusStatistics(t *testing.T) {
	rng := sim.NewRNG(1).Stream("corpus")
	sites := GenerateCorpus(rng, 120)
	if len(sites) != 120 {
		t.Fatalf("sites = %d", len(sites))
	}
	var objs, doms, weights []float64
	for _, s := range sites {
		objs = append(objs, float64(len(s.Objects)))
		doms = append(doms, float64(s.Domains))
		weight := s.HTMLSize
		for _, o := range s.Objects {
			weight += o.Size
		}
		weights = append(weights, float64(weight))
		if s.Domains < 2 || s.Domains > 32 {
			t.Errorf("site %d domains = %d", s.Rank, s.Domains)
		}
		for _, o := range s.Objects {
			if o.Domain < 0 || o.Domain >= s.Domains {
				t.Fatalf("object domain %d out of range", o.Domain)
			}
			if o.Size < 200 {
				t.Fatalf("object size %d too small", o.Size)
			}
		}
	}
	medObjs := med(objs)
	medDoms := med(doms)
	medW := med(weights)
	if medObjs < 30 || medObjs > 90 {
		t.Errorf("median objects/page = %v, want ~55", medObjs)
	}
	if medDoms < 8 || medDoms > 22 {
		t.Errorf("median domains/page = %v, want ~14", medDoms)
	}
	if medW < 500e3 || medW > 5e6 {
		t.Errorf("median page weight = %v, want ~2MB", medW)
	}
}

func TestCorpusDeterminism(t *testing.T) {
	a := GenerateCorpus(sim.NewRNG(9).Stream("c"), 10)
	b := GenerateCorpus(sim.NewRNG(9).Stream("c"), 10)
	for i := range a {
		if len(a[i].Objects) != len(b[i].Objects) || a[i].HTMLSize != b[i].HTMLSize {
			t.Fatal("corpus generation is not deterministic")
		}
	}
}

func med(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// webTestbed: client -(access link)- gw - N server nodes (one per domain
// pool slot).
func webTestbed(t *testing.T, access netem.LinkConfig, rttToServers time.Duration) (*sim.Scheduler, *Browser) {
	t.Helper()
	s := sim.NewScheduler(77)
	nw := netem.New(s)
	client := nw.NewNode("client", netem.MustParseAddr("10.0.0.2"))
	gw := nw.NewNode("gw", netem.MustParseAddr("10.0.0.1"))
	c2g, g2c := nw.Connect(client, gw, access)
	client.SetDefaultRoute(c2g)
	gw.AddRoute(client.Addr(), g2c)

	cfg := tcpsim.DefaultConfig() // TLS 1.2
	const pool = 8
	servers := make([]*netem.Node, pool)
	for i := 0; i < pool; i++ {
		servers[i] = nw.NewNode("srv"+string(rune('a'+i)), netem.Addr(0x08080801+uint32(i)))
		core := netem.LinkConfig{RateBps: 1e9, Delay: netem.ConstantDelay(rttToServers / 2), QueueBytes: 4 << 20}
		g2s, s2g := nw.Connect(gw, servers[i], core)
		gw.AddRoute(servers[i].Addr(), g2s)
		servers[i].SetDefaultRoute(s2g)
		Server(servers[i], cfg)
	}
	b := &Browser{
		Node: client,
		Resolve: func(domain int) netem.Addr {
			return servers[domain%pool].Addr()
		},
		TCP:      cfg,
		Deadline: 120 * time.Second,
	}
	return s, b
}

func fastAccess() netem.LinkConfig {
	return netem.LinkConfig{RateBps: 500e6, Delay: netem.ConstantDelay(2 * time.Millisecond), QueueBytes: 4 << 20}
}

func TestVisitCompletes(t *testing.T) {
	s, b := webTestbed(t, fastAccess(), 10*time.Millisecond)
	site := GenerateCorpus(sim.NewRNG(3).Stream("x"), 1)[0]
	var res VisitResult
	got := false
	b.Visit(&site, func(r VisitResult) { res, got = r, true })
	s.RunFor(3 * time.Minute)
	if !got {
		t.Fatal("visit never finished")
	}
	if res.Failed {
		t.Fatal("visit failed")
	}
	if res.OnLoad <= 0 {
		t.Error("onLoad not measured")
	}
	if res.SpeedIndex <= 0 || res.SpeedIndex > res.OnLoad {
		t.Errorf("SpeedIndex %v vs onLoad %v: SI must be positive and below onLoad", res.SpeedIndex, res.OnLoad)
	}
	used := map[int]bool{0: true}
	for _, o := range site.Objects {
		used[o.Domain] = true
	}
	if res.Connections != len(used) {
		t.Errorf("connections = %d, want %d (one per contacted domain)", res.Connections, len(used))
	}
	if len(res.ConnSetupTimes) != res.Connections {
		t.Errorf("setup times = %d", len(res.ConnSetupTimes))
	}
}

func TestVisitSlowerOnHighLatencyAccess(t *testing.T) {
	site := GenerateCorpus(sim.NewRNG(5).Stream("y"), 1)[0]
	run := func(access netem.LinkConfig) VisitResult {
		s, b := webTestbed(t, access, 10*time.Millisecond)
		var res VisitResult
		b.Visit(&site, func(r VisitResult) { res = r })
		s.RunFor(5 * time.Minute)
		return res
	}
	fast := run(fastAccess())
	slow := run(netem.LinkConfig{RateBps: 100e6, Delay: netem.ConstantDelay(290 * time.Millisecond), QueueBytes: 4 << 20})
	if fast.Failed || slow.Failed {
		t.Fatal("visit failed")
	}
	// A GEO-like access multiplies every handshake and request RTT.
	if slow.OnLoad < 4*fast.OnLoad {
		t.Errorf("GEO onLoad %v should dwarf wired %v", slow.OnLoad, fast.OnLoad)
	}
	if slow.MeanSetup() < 3*fast.MeanSetup() {
		t.Errorf("GEO setup %v vs wired %v", slow.MeanSetup(), fast.MeanSetup())
	}
}

func TestVisitDeadline(t *testing.T) {
	// Access link fully down: the visit must fail at the deadline.
	access := netem.LinkConfig{Down: func(sim.Time) bool { return true }}
	s, b := webTestbed(t, access, 10*time.Millisecond)
	b.Deadline = 10 * time.Second
	site := GenerateCorpus(sim.NewRNG(7).Stream("z"), 1)[0]
	var res VisitResult
	got := false
	b.Visit(&site, func(r VisitResult) { res, got = r, true })
	s.RunFor(time.Minute)
	if !got || !res.Failed {
		t.Fatalf("expected a failed visit, got %+v (done=%v)", res, got)
	}
}
