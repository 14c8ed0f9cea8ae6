package netem

import (
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

// allocChain builds a 3-node chain a-b-c with per-hop delay and returns
// (scheduler, network, a, c). The topology is tiny on purpose: the gates
// below measure the per-packet datapath, not topology setup.
func allocChain(tb testing.TB) (*sim.Scheduler, *Network, *Node, *Node) {
	tb.Helper()
	s := sim.NewScheduler(1)
	nw := New(s)
	nodes := buildChainOn(nw, 3, time.Millisecond)
	return s, nw, nodes[0], nodes[2]
}

// buildChainOn mirrors buildChain for benchmarks (testing.TB-free).
func buildChainOn(nw *Network, k int, hop time.Duration) []*Node {
	nodes := make([]*Node, k)
	for i := range nodes {
		nodes[i] = nw.NewNode(string(rune('A'+i)), Addr(0x0b000001+uint32(i)))
	}
	for i := 0; i+1 < len(nodes); i++ {
		right, left := nw.Connect(nodes[i], nodes[i+1], LinkConfig{Delay: ConstantDelay(hop)})
		nodes[i].SetDefaultRoute(right)
		for j := 0; j <= i; j++ {
			nodes[i+1].AddRoute(nodes[j].Addr(), left)
		}
	}
	return nodes
}

func gateAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	// Warm the pools (packet freelist, link rings, scheduler timers) past
	// their steady-state high-water mark before measuring.
	for i := 0; i < 64; i++ {
		f()
	}
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %v allocs per packet cycle, want 0", name, avg)
	}
}

// The full send -> route -> transit-forward -> deliver cycle of a pooled
// UDP packet must not allocate in steady state.
func TestAllocGateSendRouteDeliver(t *testing.T) {
	s, nw, a, c := allocChain(t)
	c.Bind(ProtoUDP, 9, func(*Packet) {})
	gateAllocs(t, "send-route-deliver", func() {
		pkt := nw.NewPacket()
		pkt.Dst = c.Addr()
		pkt.DstPort = 9
		pkt.Proto = ProtoUDP
		pkt.Size = 100
		a.Send(pkt)
		s.Run()
	})
}

// A pooled ICMP echo round trip — request out, pooled reply built by the
// responder, reply delivered back — must not allocate in steady state.
func TestAllocGateEchoResponder(t *testing.T) {
	s, nw, a, c := allocChain(t)
	c.EchoResponder = true
	a.Bind(ProtoICMP, 0, func(*Packet) {})
	seq := 0
	gateAllocs(t, "echo-responder", func() {
		seq++
		pkt := nw.NewPacket()
		pkt.Dst = c.Addr()
		pkt.SrcPort = 7
		pkt.Proto = ProtoICMP
		pkt.Size = 64
		body := nw.NewICMP()
		body.Type, body.Seq = ICMPEchoRequest, seq
		pkt.Payload = body
		a.Send(pkt)
		s.Run()
	})
}

// Pure transit forwarding (the middle hop of the chain, TTL decrement
// plus flat-FIB lookup plus link scheduling) must not allocate.
func TestAllocGateTransitForward(t *testing.T) {
	s := sim.NewScheduler(1)
	nw := New(s)
	nodes := buildChainOn(nw, 5, time.Millisecond)
	last := nodes[len(nodes)-1]
	last.Bind(ProtoUDP, 9, func(*Packet) {})
	gateAllocs(t, "transit-forward", func() {
		pkt := nw.NewPacket()
		pkt.Dst = last.Addr()
		pkt.DstPort = 9
		pkt.Proto = ProtoUDP
		pkt.Size = 100
		nodes[0].Send(pkt)
		s.Run()
	})
}

// countedPayload stands in for a pooled payload (a TCP segment): it
// counts the times the datapath gives it back.
type countedPayload struct{ released int }

func (p *countedPayload) ReleasePayload() { p.released++ }

// An unreachable-port and TTL-expiry storm must not allocate in steady
// state: every error, its body and its quote come from the pools, and all
// of them — the quoted payload too — go back when the error is consumed.
func TestAllocGateICMPErrors(t *testing.T) {
	s, nw, a, c := allocChain(t)
	errs := 0
	a.Bind(ProtoICMP, 0, func(p *Packet) {
		if ic := p.Payload.(*ICMP); ic.Quoted != nil {
			errs++
		}
	})
	payload := &countedPayload{}
	gateAllocs(t, "icmp-errors", func() {
		for i := 0; i < 8; i++ {
			pkt := nw.NewPacket()
			pkt.Dst, pkt.DstPort, pkt.Proto, pkt.Size = c.Addr(), 4242, ProtoUDP, 1200
			pkt.TTL = 1 + i%2 // odd packets expire at the middle hop
			pkt.Payload = payload
			a.Send(pkt)
		}
		s.Run()
	})
	if errs == 0 || payload.released != errs {
		t.Fatalf("%d errors came back and %d quoted payloads were released", errs, payload.released)
	}
	if st := nw.PoolStats(); st.Gets != st.Puts {
		t.Fatalf("packet pool %+v after the storm, want every packet back", st)
	}
}

// BenchmarkPacketPath measures the steady-state cost of one packet
// traversing the 3-node chain end to end (two link hops, one transit
// forward, final delivery). Must report 0 allocs/op.
func BenchmarkPacketPath(b *testing.B) {
	s, nw, a, c := allocChain(b)
	c.Bind(ProtoUDP, 9, func(*Packet) {})
	run := func() {
		pkt := nw.NewPacket()
		pkt.Dst = c.Addr()
		pkt.DstPort = 9
		pkt.Proto = ProtoUDP
		pkt.Size = 100
		a.Send(pkt)
		s.Run()
	}
	for i := 0; i < 64; i++ {
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkPacketPathNoRecycle is the same traversal with recycling off:
// what the packet and ICMP pools save per packet.
func BenchmarkPacketPathNoRecycle(b *testing.B) {
	s := sim.NewScheduler(1)
	nw := New(s)
	nw.DisableRecycling()
	nodes := buildChainOn(nw, 3, time.Millisecond)
	a, c := nodes[0], nodes[2]
	c.Bind(ProtoUDP, 9, func(*Packet) {})
	run := func() {
		pkt := nw.NewPacket()
		pkt.Dst = c.Addr()
		pkt.DstPort = 9
		pkt.Proto = ProtoUDP
		pkt.Size = 100
		a.Send(pkt)
		s.Run()
	}
	for i := 0; i < 64; i++ {
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
