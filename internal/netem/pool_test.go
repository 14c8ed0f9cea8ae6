package netem

import (
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

func TestPacketPoolLifecycle(t *testing.T) {
	_, nw := testNet(t)
	p := nw.NewPacket()
	if !p.Pooled() {
		t.Fatal("NewPacket must hand out a pool-owned packet")
	}
	p.ID, p.TTL, p.Payload = 9, 3, "x"
	gen := p.Gen()
	nw.ReleasePacket(p, gen)

	st := nw.PoolStats()
	if st.Gets != 1 || st.Puts != 1 || st.Hits != 0 {
		t.Fatalf("stats after first cycle = %+v", st)
	}
	q := nw.NewPacket()
	if q != p {
		t.Fatal("freelist must return the released packet")
	}
	if q.Gen() != gen+1 {
		t.Fatalf("generation = %d, want %d", q.Gen(), gen+1)
	}
	if q.ID != 0 || q.Payload != nil || q.TTL != 0 {
		t.Fatalf("recycled packet not scrubbed: %+v", q)
	}
	if got := nw.PoolStats(); got.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", got.Hits)
	}
	if hr := nw.PoolStats().HitRate(); hr != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", hr)
	}
}

func TestStaleDoubleAndForeignReleasesAreInert(t *testing.T) {
	_, nw := testNet(t)
	s2 := sim.NewScheduler(2)
	other := New(s2)

	p := nw.NewPacket()
	gen := p.Gen()
	nw.ReleasePacket(p, gen)
	nw.ReleasePacket(p, gen) // double release: gen already advanced
	if st := nw.PoolStats(); st.Puts != 1 {
		t.Fatalf("double release not inert: Puts = %d", st.Puts)
	}

	q := nw.NewPacket()
	nw.ReleasePacket(q, q.Gen()+1) // stale/wrong generation
	if q.Pooled() && len(nw.pktFree.All()) != 0 {
		t.Fatal("stale-generation release must be a no-op")
	}
	other.ReleasePacket(q, q.Gen()) // foreign network
	if len(other.pktFree.All()) != 0 {
		t.Fatal("foreign release must be a no-op")
	}

	lit := &Packet{}
	nw.ReleasePacket(lit, lit.Gen()) // literal: never pooled
	nw.releaseConsumed(lit)
	if len(nw.pktFree.All()) != 0 {
		t.Fatal("literal release must be a no-op")
	}
}

func TestDetachRemovesFromPool(t *testing.T) {
	_, nw := testNet(t)
	p := nw.NewPacket()
	ic := nw.NewICMP()
	p.Payload = ic
	p.Detach()
	if p.Pooled() {
		t.Fatal("detached packet still pool-owned")
	}
	nw.releaseConsumed(p)
	if len(nw.pktFree.All()) != 0 || len(nw.icmpFree.All()) != 0 {
		t.Fatal("detached packet or its ICMP body returned to the pool")
	}
}

// An ICMP error owns its quote and the quote its payload: releasing the
// error returns all of them to their pools, the quoted payload first.
func TestQuotedICMPRecycledWithItsError(t *testing.T) {
	_, nw := testNet(t)
	payload := &sharedOncePayload{}
	quote := nw.NewPacket()
	quote.ID, quote.Payload = 99, payload
	ic := nw.NewICMP()
	ic.Type, ic.Quoted = ICMPTimeExceeded, quote
	p := nw.NewPacket()
	p.Payload = ic
	nw.releaseConsumed(p)
	if len(nw.pktFree.All()) != 2 || len(nw.icmpFree.All()) != 1 || !payload.released {
		t.Fatalf("error, quote or quoted payload not recycled: %d packets, %d bodies, payload %+v",
			len(nw.pktFree.All()), len(nw.icmpFree.All()), payload)
	}
	if st := nw.PoolStats(); st.Gets != st.Puts || st.Shared != 0 {
		t.Fatalf("pool counters %+v, want every draw returned", st)
	}
}

// Detaching an ICMP error detaches its quote and shares the quoted
// payload out, so the holder keeps all of it intact and the pool counts
// both packets Shared.
func TestDetachedErrorKeepsItsQuote(t *testing.T) {
	_, nw := testNet(t)
	payload := &sharedOncePayload{}
	quote := nw.NewPacket()
	quote.ID, quote.Payload = 99, payload
	ic := nw.NewICMP()
	ic.Type, ic.Quoted = ICMPTimeExceeded, quote
	p := nw.NewPacket()
	p.Payload = ic
	p.Detach()
	nw.releaseConsumed(p)
	if len(nw.pktFree.All()) != 0 || len(nw.icmpFree.All()) != 0 {
		t.Fatal("a detached error returned its body or quote to the pool")
	}
	if ic.Quoted != quote || quote.ID != 99 || quote.Pooled() || !payload.shared || payload.released {
		t.Fatalf("quote %+v or its payload %+v not kept", quote, payload)
	}
	if st := nw.PoolStats(); st.Gets != st.Puts+st.Shared || st.Shared != 2 {
		t.Fatalf("pool counters %+v, want the error and its quote Shared", st)
	}

	// Detaching only the quote keeps it; the error around it goes home.
	quote = nw.NewPacket()
	quote.ID = 7
	ic = nw.NewICMP()
	ic.Type, ic.Quoted = ICMPDestUnreachable, quote
	p = nw.NewPacket()
	p.Payload = ic
	quote.Detach()
	nw.releaseConsumed(p)
	if quote.ID != 7 || len(nw.pktFree.All()) != 1 || len(nw.icmpFree.All()) != 1 {
		t.Fatalf("kept quote %+v; %d packets, %d bodies pooled, want the error's 1 and 1",
			quote, len(nw.pktFree.All()), len(nw.icmpFree.All()))
	}
}

func TestReferenceModeAllocatesPlainly(t *testing.T) {
	_, nw := testNet(t)
	early := nw.NewPacket()
	nw.DisableRecycling()
	p := nw.NewPacket()
	if p.Pooled() {
		t.Fatal("no-recycle mode must hand out owner-less packets")
	}
	payload := &sharedOncePayload{}
	p.Payload = payload
	nw.releaseConsumed(p)
	nw.ReleasePacket(p, p.Gen())
	if payload.released {
		t.Fatal("no-recycle mode released a payload to its pool")
	}
	ic := nw.NewICMP()
	p.Payload = ic
	nw.releaseConsumed(p)
	// A packet handed out before the switch still returns, but nothing
	// is ever drawn from the freelist again.
	nw.releaseConsumed(early)
	if again := nw.NewPacket(); again == early || again == p {
		t.Fatal("no-recycle mode reused a released packet")
	}
	if again := nw.NewICMP(); again == ic {
		t.Fatal("no-recycle mode reused a released ICMP body")
	}
	if st := nw.PoolStats(); st.Gets != 1 || st.Hits != 0 {
		t.Fatalf("no-recycle mode drew from the pool: %+v", st)
	}
}

func TestCloneOfPooledPacketIsIndependent(t *testing.T) {
	_, nw := testNet(t)
	p := nw.NewPacket()
	p.ID, p.Dst, p.Size = 7, 42, 100
	q := p.Clone()
	if q == p || !q.Pooled() {
		t.Fatal("clone of a pooled packet must be a distinct pooled packet")
	}
	if q.ID != 7 || q.Dst != 42 || q.Size != 100 {
		t.Fatalf("clone fields wrong: %+v", q)
	}
	nw.releasePacket(p)
	if q.ID != 7 {
		t.Fatal("releasing the original corrupted the clone")
	}

	lit := &Packet{ID: 5}
	if c := lit.Clone(); c.Pooled() || c.ID != 5 {
		t.Fatal("clone of a literal must stay a literal")
	}
}

// sharedOncePayload is a pooled payload in miniature: it goes back to its
// pool on release unless it was shared first.
type sharedOncePayload struct{ shared, released bool }

func (p *sharedOncePayload) SharePayload() { p.shared = true }
func (p *sharedOncePayload) ReleasePayload() {
	if !p.shared {
		p.released = true
	}
}

// Clone must tell a PayloadSharer before the copy references it, so that
// the original's terminal point does not recycle it under the clone.
func TestCloneSharesPooledPayload(t *testing.T) {
	_, nw := testNet(t)
	alone, cloned := &sharedOncePayload{}, &sharedOncePayload{}
	p := nw.NewPacket()
	p.Payload = alone
	nw.releaseConsumed(p)
	if !alone.released {
		t.Fatal("unshared payload not released at the terminal point")
	}
	p = nw.NewPacket()
	p.Payload = cloned
	q := p.Clone()
	nw.releaseConsumed(p)
	if !cloned.shared || cloned.released || q.Payload != cloned {
		t.Fatalf("cloned payload: %+v, want shared and not released", cloned)
	}
}

// Regression for the Send stamping change: a packet that already carries
// an ID (a re-injected or duplicated packet) must keep its ID and SentAt
// so capture correlation holds; fresh packets still get stamped.
func TestSendPreservesPresetID(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 2, time.Millisecond)
	a, b := nodes[0], nodes[1]
	b.Bind(ProtoUDP, 9, func(*Packet) {})

	fresh := &Packet{Dst: b.Addr(), DstPort: 9, Proto: ProtoUDP, Size: 10}
	a.Send(fresh)
	if fresh.ID == 0 {
		t.Fatal("fresh packet not stamped")
	}

	preset := &Packet{ID: 777, SentAt: sim.Time(5 * time.Millisecond),
		Dst: b.Addr(), DstPort: 9, Proto: ProtoUDP, Size: 10}
	a.Send(preset)
	if preset.ID != 777 || preset.SentAt != sim.Time(5*time.Millisecond) {
		t.Fatalf("preset ID/SentAt restamped: id=%d sentAt=%v", preset.ID, preset.SentAt)
	}
	s.Run()
}

// The quoted probe inside a TimeExceeded must carry the original probe's
// stamped ID even though the probe wrapper is recycled after expiry —
// that ID is what lets traceroute correlate replies to probes.
func TestQuotedPacketKeepsProbeID(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 4, time.Millisecond)

	var reply *Packet
	nodes[0].Bind(ProtoICMP, 0, func(p *Packet) { p.Detach(); reply = p })

	probe := nw.NewPacket()
	probe.Dst = nodes[3].Addr()
	probe.DstPort = 33436
	probe.SrcPort = 40000
	probe.Proto = ProtoUDP
	probe.Size = 60
	probe.TTL = 2
	nodes[0].Send(probe)
	probeID, probeSum := probe.ID, probe.Checksum // read before the pool recycles it
	if probeID == 0 {
		t.Fatal("probe not stamped")
	}
	s.Run()

	if reply == nil {
		t.Fatal("no TimeExceeded came back")
	}
	icmp := reply.Payload.(*ICMP)
	if icmp.Type != ICMPTimeExceeded || icmp.Quoted == nil {
		t.Fatalf("unexpected reply: %+v", icmp)
	}
	q := icmp.Quoted
	if q.ID != probeID {
		t.Fatalf("quoted ID = %d, want %d", q.ID, probeID)
	}
	if q.SrcPort != 40000 || q.DstPort != 33436 || q.Checksum != probeSum {
		t.Fatalf("quoted header fields diverge from the probe: %+v", q)
	}
}

// A pooled echo request whose TTL expires is quoted in the TimeExceeded
// with its ICMP body moved, not copied: the quote owns it. A handler that
// keeps the error Detaches it, quote and body included, so the body never
// returns to the freelist: ICMP bodies drawn afterwards are fresh, and the
// quote a traceroute keeps stays intact.
func TestExpiredEchoQuoteKeepsItsBody(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 4, time.Millisecond)

	var reply *Packet
	nodes[0].Bind(ProtoICMP, 0, func(p *Packet) {
		if ic := p.Payload.(*ICMP); ic.Type == ICMPTimeExceeded {
			p.Detach()
			reply = p
		}
	})
	probe := nw.NewPacket()
	body := nw.NewICMP()
	body.Type, body.Seq = ICMPEchoRequest, 7
	probe.Dst, probe.Proto, probe.Size, probe.TTL, probe.Payload = nodes[3].Addr(), ProtoICMP, 64, 2, body
	nodes[0].Send(probe)
	s.Run()

	if reply == nil {
		t.Fatal("no TimeExceeded came back")
	}
	q := reply.Payload.(*ICMP).Quoted
	if q == nil || q.Payload != body || q.Pooled() || body.owner != nil {
		t.Fatalf("quote %+v does not own its echo body %+v outside the pool", q, body)
	}
	for i := 0; i < 4; i++ {
		ic := nw.NewICMP()
		if ic == body {
			t.Fatal("the quoted echo body came back out of the freelist")
		}
		ic.Type, ic.Seq = ICMPEchoReply, 100+i
	}
	if body.Type != ICMPEchoRequest || body.Seq != 7 {
		t.Fatalf("quoted echo body overwritten: %+v", body)
	}
}

// EphemeralPort pressure: allocation must never return port 0 or dip to
// the well-known range after the uint16 counter wraps.
func TestEphemeralPortWrapStaysAboveFloor(t *testing.T) {
	_, nw := testNet(t)
	n := nw.NewNode("n", MustParseAddr("10.0.0.1"))
	const floor = 32768
	seen0 := false
	for i := 0; i < 200000; i++ {
		p := n.EphemeralPort(ProtoTCP, floor)
		if p == 0 {
			seen0 = true
			break
		}
		if p <= floor {
			t.Fatalf("allocation %d: port %d at or below floor %d", i, p, floor)
		}
	}
	if seen0 {
		t.Fatal("EphemeralPort handed out port 0 after wrap")
	}

	// Each protocol counts on its own.
	m := nw.NewNode("m", MustParseAddr("10.0.0.2"))
	for i, c := range []struct {
		proto       Proto
		floor, want uint16
	}{{ProtoTCP, floor, floor + 1}, {ProtoUDP, 52000, 52001}, {ProtoTCP, floor, floor + 2}, {ProtoUDP, 52000, 52002}} {
		if p := m.EphemeralPort(c.proto, c.floor); p != c.want {
			t.Fatalf("allocation %d (%v): port %d, want %d", i, c.proto, p, c.want)
		}
	}

	// Degenerate floor: the only allocatable port above 0xfffe is 0xffff.
	for i := 0; i < 10; i++ {
		if p := n.EphemeralPort(ProtoUDP, 0xffff); p != 0xffff {
			t.Fatalf("degenerate floor allocation = %d, want 0xffff", p)
		}
	}
}
