package netem

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"starlinkperf/internal/sim"
)

func testNet(t *testing.T) (*sim.Scheduler, *Network) {
	t.Helper()
	s := sim.NewScheduler(42)
	return s, New(s)
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"192.168.1.1", 0xc0a80101, true},
		{"100.64.0.1", 0x64400001, true},
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"1.2.3.256", 0, false},
		{"a.b.c.d", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %#x, want %#x", c.in, uint32(got), uint32(c.want))
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		b, err := ParseAddr(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrClassification(t *testing.T) {
	if !MustParseAddr("192.168.1.1").Private() {
		t.Error("192.168.1.1 should be private")
	}
	if !MustParseAddr("10.20.30.40").Private() {
		t.Error("10/8 should be private")
	}
	if !MustParseAddr("172.16.0.1").Private() || MustParseAddr("172.32.0.1").Private() {
		t.Error("172.16/12 classification wrong")
	}
	if !MustParseAddr("100.64.0.1").CGNAT() {
		t.Error("100.64.0.1 should be CGNAT space")
	}
	if !MustParseAddr("100.127.255.255").CGNAT() || MustParseAddr("100.128.0.0").CGNAT() {
		t.Error("100.64/10 boundary wrong")
	}
	if MustParseAddr("8.8.8.8").Private() || MustParseAddr("8.8.8.8").CGNAT() {
		t.Error("8.8.8.8 misclassified")
	}
}

func TestChecksumChangesWithRewrite(t *testing.T) {
	a := PseudoChecksum(MustParseAddr("192.168.1.2"), MustParseAddr("8.8.8.8"), 1000, 443, ProtoUDP)
	b := PseudoChecksum(MustParseAddr("100.64.0.7"), MustParseAddr("8.8.8.8"), 1000, 443, ProtoUDP)
	if a == b {
		t.Error("checksum must change when the source address is rewritten")
	}
}

// buildChain creates a linear topology n0 - n1 - ... - n_{k-1} with the
// given per-hop delay and infinite-rate links, and default routes pointing
// "right" plus exact return routes pointing "left".
func buildChain(nw *Network, k int, hop time.Duration) []*Node {
	nodes := make([]*Node, k)
	for i := range nodes {
		nodes[i] = nw.NewNode(string(rune('a'+i)), Addr(0x0a000001+uint32(i)))
	}
	for i := 0; i+1 < len(nodes); i++ {
		right, left := nw.Connect(nodes[i], nodes[i+1], LinkConfig{Delay: ConstantDelay(hop)})
		nodes[i].SetDefaultRoute(right)
		nodes[i+1].AddRoute(nodes[i].Addr(), left)
		// Return path for everything to the left.
		for j := 0; j <= i; j++ {
			nodes[i+1].AddRoute(nodes[j].Addr(), left)
		}
	}
	return nodes
}

func TestEndToEndDelivery(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 4, 5*time.Millisecond)
	src, dst := nodes[0], nodes[3]

	var got *Packet
	var at sim.Time
	dst.Bind(ProtoUDP, 9000, func(p *Packet) { got, at = p, s.Now() })

	src.Send(&Packet{Dst: dst.Addr(), DstPort: 9000, Proto: ProtoUDP, Size: 100, Payload: "hi"})
	s.Run()

	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Payload != "hi" {
		t.Errorf("payload = %v", got.Payload)
	}
	if want := sim.Time(15 * time.Millisecond); at != want {
		t.Errorf("delivered at %v, want %v (3 hops x 5ms)", at, want)
	}
	if got.TTL != DefaultTTL-2 {
		t.Errorf("TTL = %d, want %d (2 transit nodes)", got.TTL, DefaultTTL-2)
	}
}

func TestSerializationDelay(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	// 8 Mbit/s: a 1000-byte packet serializes in 1 ms.
	ab, _ := nw.Connect(a, b, LinkConfig{RateBps: 8e6, Delay: ConstantDelay(10 * time.Millisecond)})
	a.AddRoute(b.Addr(), ab)

	var arrivals []sim.Time
	b.Bind(ProtoUDP, 1, func(p *Packet) { arrivals = append(arrivals, s.Now()) })

	for i := 0; i < 3; i++ {
		a.Send(&Packet{Dst: b.Addr(), DstPort: 1, Proto: ProtoUDP, Size: 1000})
	}
	s.Run()

	if len(arrivals) != 3 {
		t.Fatalf("delivered %d, want 3", len(arrivals))
	}
	// Back-to-back sends serialize FIFO: arrivals at 11, 12, 13 ms.
	for i, want := range []time.Duration{11, 12, 13} {
		if arrivals[i] != sim.Time(want*time.Millisecond) {
			t.Errorf("arrival %d at %v, want %vms", i, arrivals[i], want)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	ab, _ := nw.Connect(a, b, LinkConfig{RateBps: 8e6, QueueBytes: 2500})
	a.AddRoute(b.Addr(), ab)

	var drops int
	ab.DropHook = func(_ sim.Time, _ *Packet, r DropReason) {
		if r != DropQueueFull {
			t.Errorf("drop reason = %v, want queue-full", r)
		}
		drops++
	}
	delivered := 0
	b.Bind(ProtoUDP, 1, func(p *Packet) { delivered++ })

	// 5 packets of 1000B into a 2500B queue: 2 fit (plus in-service), 3 drop.
	for i := 0; i < 5; i++ {
		a.Send(&Packet{Dst: b.Addr(), DstPort: 1, Proto: ProtoUDP, Size: 1000})
	}
	s.Run()

	if delivered != 2 || drops != 3 {
		t.Errorf("delivered/drops = %d/%d, want 2/3", delivered, drops)
	}
	st := ab.Stats()
	if st.DropsQueue != 3 || st.Delivered != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBernoulliLossRate(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	rng := s.RNG().Stream("loss")
	ab, _ := nw.Connect(a, b, LinkConfig{Loss: &BernoulliLoss{P: 0.1, Rng: rng}})
	a.AddRoute(b.Addr(), ab)

	delivered := 0
	b.Bind(ProtoUDP, 1, func(p *Packet) { delivered++ })
	const n = 20000
	for i := 0; i < n; i++ {
		a.Send(&Packet{Dst: b.Addr(), DstPort: 1, Proto: ProtoUDP, Size: 100})
	}
	s.Run()

	rate := 1 - float64(delivered)/n
	if math.Abs(rate-0.1) > 0.01 {
		t.Errorf("observed loss %v, want ~0.1", rate)
	}
}

func TestGilbertElliottStationaryRate(t *testing.T) {
	rng := sim.NewRNG(7).Stream("ge")
	ge := &GilbertElliott{PGB: 0.01, PBG: 0.3, LossGood: 0.001, LossBad: 0.4, Rng: rng}
	want := ge.StationaryLossRate()

	lost := 0
	const n = 300000
	for i := 0; i < n; i++ {
		if ge.Lost(0) {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("empirical loss %v, analytic %v", got, want)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	rng := sim.NewRNG(9).Stream("ge")
	// Strongly bursty: long bad states that always lose.
	ge := &GilbertElliott{PGB: 0.002, PBG: 0.2, LossGood: 0, LossBad: 1, Rng: rng}
	var bursts []int
	run := 0
	for i := 0; i < 200000; i++ {
		if ge.Lost(0) {
			run++
		} else if run > 0 {
			bursts = append(bursts, run)
			run = 0
		}
	}
	if len(bursts) == 0 {
		t.Fatal("no loss bursts")
	}
	sum := 0
	for _, b := range bursts {
		sum += b
	}
	mean := float64(sum) / float64(len(bursts))
	// Geometric with p=0.2 has mean 5.
	if mean < 3 || mean > 8 {
		t.Errorf("mean burst length %v, want ~5", mean)
	}
}

func TestOutageScheduleDown(t *testing.T) {
	o := &OutageSchedule{Outages: []Outage{
		{Start: sim.Time(10 * time.Second), End: sim.Time(11 * time.Second)},
		{Start: sim.Time(20 * time.Second), End: sim.Time(22 * time.Second)},
	}}
	cases := []struct {
		at   time.Duration
		down bool
	}{
		{9 * time.Second, false},
		{10 * time.Second, true},
		{10500 * time.Millisecond, true},
		{11 * time.Second, true},
		{12 * time.Second, false},
		{21 * time.Second, true},
		{23 * time.Second, false},
	}
	for _, c := range cases {
		if got := o.Down(sim.Time(c.at)); got != c.down {
			t.Errorf("Down(%v) = %v, want %v", c.at, got, c.down)
		}
	}
}

func TestPoissonOutagesWithinHorizon(t *testing.T) {
	rng := sim.NewRNG(5).Stream("outage")
	horizon := sim.Time(24 * time.Hour)
	sched := PoissonOutages(rng, horizon, time.Hour, 2*time.Second)
	if len(sched.Outages) == 0 {
		t.Fatal("expected some outages over 24h with 1h interarrival")
	}
	prevEnd := sim.Time(-1)
	for _, o := range sched.Outages {
		if o.Start >= horizon {
			t.Errorf("outage starts after horizon: %+v", o)
		}
		if o.End <= o.Start {
			t.Errorf("empty outage: %+v", o)
		}
		if o.Start <= prevEnd {
			t.Errorf("overlapping outages at %v", o.Start)
		}
		prevEnd = o.End
	}
}

func TestTTLExpiryGeneratesTimeExceeded(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 4, time.Millisecond)
	src := nodes[0]

	var reply *Packet
	src.Bind(ProtoICMP, 0, func(p *Packet) { p.Detach(); reply = p })

	src.Send(&Packet{Dst: nodes[3].Addr(), DstPort: 33434, Proto: ProtoUDP, Size: 60, TTL: 2})
	s.Run()

	if reply == nil {
		t.Fatal("no ICMP reply")
	}
	icmp := reply.Payload.(*ICMP)
	if icmp.Type != ICMPTimeExceeded {
		t.Fatalf("ICMP type = %v", icmp.Type)
	}
	// TTL 2: expires at the second node it reaches after the first hop,
	// i.e. node index 2 (a sends, b forwards TTL->1, c expires it).
	if reply.Src != nodes[2].Addr() {
		t.Errorf("time-exceeded from %v, want %v", reply.Src, nodes[2].Addr())
	}
	if icmp.Quoted == nil || icmp.Quoted.Dst != nodes[3].Addr() {
		t.Error("quoted packet missing or wrong")
	}
}

func TestEchoResponder(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 3, 2*time.Millisecond)
	nodes[2].EchoResponder = true

	var rtt time.Duration
	nodes[0].Bind(ProtoICMP, 0, func(p *Packet) {
		icmp := p.Payload.(*ICMP)
		if icmp.Type == ICMPEchoReply {
			rtt = s.Now().Sub(0)
		}
	})
	nodes[0].Send(&Packet{Dst: nodes[2].Addr(), Proto: ProtoICMP, Size: 64, Payload: &ICMP{Type: ICMPEchoRequest, Seq: 1}})
	s.Run()

	if rtt != 8*time.Millisecond {
		t.Errorf("echo RTT = %v, want 8ms (2 hops x 2ms x 2)", rtt)
	}
}

func TestDestUnreachableWhenNoListener(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 2, time.Millisecond)

	var reply *Packet
	nodes[0].Bind(ProtoICMP, 0, func(p *Packet) { p.Detach(); reply = p })
	nodes[0].Send(&Packet{Dst: nodes[1].Addr(), DstPort: 4242, Proto: ProtoUDP, Size: 60})
	s.Run()

	if reply == nil {
		t.Fatal("no ICMP reply")
	}
	if icmp := reply.Payload.(*ICMP); icmp.Type != ICMPDestUnreachable {
		t.Errorf("ICMP type = %v, want dest-unreachable", icmp.Type)
	}
}

func TestNoRouteAnswersUnreachable(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 2, time.Millisecond)
	// Node 1 has no route for 10.9.9.9 and no default.
	var reply *Packet
	nodes[0].Bind(ProtoICMP, 0, func(p *Packet) { p.Detach(); reply = p })
	nodes[0].Send(&Packet{Dst: MustParseAddr("10.9.9.9"), DstPort: 1, Proto: ProtoUDP, Size: 60})
	s.Run()
	if reply == nil {
		t.Fatal("no ICMP reply for unroutable destination")
	}
	if icmp := reply.Payload.(*ICMP); icmp.Type != ICMPDestUnreachable {
		t.Errorf("ICMP type = %v", icmp.Type)
	}
}

func TestPrefixRouting(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.1.0.1"))
	c := nw.NewNode("c", MustParseAddr("10.2.0.1"))
	ab, _ := nw.Connect(a, b, LinkConfig{})
	ac, _ := nw.Connect(a, c, LinkConfig{})
	// 10.1/16 via b, broader 10/8 via c.
	a.AddPrefixRoute(MustParseAddr("10.1.0.0"), 16, ab)
	a.AddPrefixRoute(MustParseAddr("10.0.0.0"), 8, ac)

	gotB, gotC := 0, 0
	b.Bind(ProtoUDP, 1, func(p *Packet) { gotB++ })
	c.Bind(ProtoUDP, 1, func(p *Packet) { gotC++ })

	a.Send(&Packet{Dst: MustParseAddr("10.1.0.1"), DstPort: 1, Proto: ProtoUDP, Size: 10})
	a.Send(&Packet{Dst: MustParseAddr("10.2.0.1"), DstPort: 1, Proto: ProtoUDP, Size: 10})
	s.Run()

	if gotB != 1 || gotC != 1 {
		t.Errorf("longest-prefix routing wrong: b=%d c=%d", gotB, gotC)
	}
}

func TestOutagePredicateDropsDuringDowntime(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	down := func(at sim.Time) bool {
		return at >= sim.Time(time.Second) && at < sim.Time(2*time.Second)
	}
	ab, _ := nw.Connect(a, b, LinkConfig{Down: down})
	a.AddRoute(b.Addr(), ab)

	delivered := 0
	b.Bind(ProtoUDP, 1, func(p *Packet) { delivered++ })
	for _, at := range []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond} {
		at := at
		s.At(sim.Time(at), func() {
			a.Send(&Packet{Dst: b.Addr(), DstPort: 1, Proto: ProtoUDP, Size: 10})
		})
	}
	s.Run()

	if delivered != 2 {
		t.Errorf("delivered = %d, want 2 (middle packet hits outage)", delivered)
	}
	if st := ab.Stats(); st.DropsDown != 1 {
		t.Errorf("DropsDown = %d, want 1", st.DropsDown)
	}
}

func TestTimeVaryingDelay(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	// Delay flips from 5ms to 20ms at t=1s.
	delay := func(at sim.Time) time.Duration {
		if at < sim.Time(time.Second) {
			return 5 * time.Millisecond
		}
		return 20 * time.Millisecond
	}
	ab, _ := nw.Connect(a, b, LinkConfig{Delay: delay})
	a.AddRoute(b.Addr(), ab)

	var arrivals []sim.Time
	b.Bind(ProtoUDP, 1, func(p *Packet) { arrivals = append(arrivals, s.Now()) })
	s.At(0, func() { a.Send(&Packet{Dst: b.Addr(), DstPort: 1, Proto: ProtoUDP, Size: 10}) })
	s.At(sim.Time(time.Second), func() { a.Send(&Packet{Dst: b.Addr(), DstPort: 1, Proto: ProtoUDP, Size: 10}) })
	s.Run()

	if arrivals[0] != sim.Time(5*time.Millisecond) {
		t.Errorf("first arrival %v", arrivals[0])
	}
	if arrivals[1] != sim.Time(time.Second+20*time.Millisecond) {
		t.Errorf("second arrival %v", arrivals[1])
	}
}

func TestTokenBucketShaper(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	m := nw.NewNode("m", MustParseAddr("10.0.0.2"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.3"))
	am, _ := nw.Connect(a, m, LinkConfig{})
	mb, bm := nw.Connect(m, b, LinkConfig{})
	a.SetDefaultRoute(am)
	m.AddRoute(b.Addr(), mb)
	m.AddRoute(a.Addr(), bm)

	// Police matching traffic to 8 kbit/s = 1000 B/s with a 1000 B bucket.
	shaper := &TokenBucketShaper{
		RateBps:    8000,
		BurstBytes: 1000,
		Match:      func(p *Packet) bool { return p.DstPort == 443 },
	}
	m.AttachDevice(shaper)

	shaped, unshaped := 0, 0
	b.Bind(ProtoUDP, 443, func(p *Packet) { shaped++ })
	b.Bind(ProtoUDP, 80, func(p *Packet) { unshaped++ })

	// 10 x 500B back-to-back at t=0: bucket allows 2 (1000B), drops 8.
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Dst: b.Addr(), DstPort: 443, Proto: ProtoUDP, Size: 500})
		a.Send(&Packet{Dst: b.Addr(), DstPort: 80, Proto: ProtoUDP, Size: 500})
	}
	s.Run()

	if unshaped != 10 {
		t.Errorf("unshaped delivered = %d, want 10", unshaped)
	}
	if shaped != 2 {
		t.Errorf("shaped delivered = %d, want 2", shaped)
	}
	if shaper.Dropped != 8 {
		t.Errorf("shaper drops = %d, want 8", shaper.Dropped)
	}
}

func TestCompositeLossConsultsAll(t *testing.T) {
	rng := sim.NewRNG(3).Stream("x")
	ge := &GilbertElliott{PGB: 1, PBG: 0, LossGood: 0, LossBad: 1, Rng: rng}
	c := CompositeLoss{&BernoulliLoss{P: 0, Rng: rng}, ge}
	if !c.Lost(0) {
		t.Error("composite should lose when GE is in permanent bad state")
	}
}

func TestLoopbackDelivery(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	got := 0
	a.Bind(ProtoUDP, 7, func(p *Packet) { got++ })
	a.Send(&Packet{Dst: a.Addr(), DstPort: 7, Proto: ProtoUDP, Size: 10})
	s.Run()
	if got != 1 {
		t.Error("loopback packet not delivered")
	}
}

// A packet crosses exactly the nodes its routes name, in order: every
// link's DeliverHook logs the node it hands the packet to.
func TestHopRecording(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 4, time.Millisecond)
	var hops []Addr
	for _, l := range nw.Links() {
		l.DeliverHook = func(_ sim.Time, p *Packet) {
			if p.DstPort == 5 {
				hops = append(hops, l.to.Addr())
			}
		}
	}
	delivered := false
	nodes[3].Bind(ProtoUDP, 5, func(p *Packet) { delivered = true })
	nodes[0].Send(&Packet{Dst: nodes[3].Addr(), DstPort: 5, Proto: ProtoUDP, Size: 10})
	s.Run()
	if !delivered {
		t.Fatal("not delivered")
	}
	want := []Addr{nodes[1].Addr(), nodes[2].Addr(), nodes[3].Addr()}
	if !slices.Equal(hops, want) {
		t.Errorf("hops = %v, want %v", hops, want)
	}
}

func TestDuplicateBindPanics(t *testing.T) {
	_, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	a.Bind(ProtoUDP, 1, func(*Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate bind should panic")
		}
	}()
	a.Bind(ProtoUDP, 1, func(*Packet) {})
}

func TestDuplicateNodePanics(t *testing.T) {
	_, nw := testNet(t)
	nw.NewNode("a", MustParseAddr("10.0.0.1"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate address should panic")
		}
	}()
	nw.NewNode("b", MustParseAddr("10.0.0.1"))
}
