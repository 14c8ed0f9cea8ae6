package netem

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

func TestPacketPoolLifecycle(t *testing.T) {
	_, nw := testNet(t)
	p := nw.NewPacket()
	if p.owner != nw {
		t.Fatal("NewPacket must hand out a pool-owned packet")
	}
	p.ID, p.TTL, p.Payload = 9, 3, "x"
	nw.releasePacket(p)
	if !p.inPool || p.owner != nw {
		t.Fatal("a released packet is not marked as listed, or lost its owner")
	}

	st := nw.PoolStats()
	if st.Gets != 1 || st.Puts != 1 || st.Hits != 0 {
		t.Fatalf("stats after first cycle = %+v", st)
	}
	q := nw.NewPacket()
	if q != p || q.inPool {
		t.Fatal("freelist must return the released packet, no longer marked as listed")
	}
	if q.ID != 0 || q.Payload != nil || q.TTL != 0 {
		t.Fatalf("recycled packet not scrubbed: %+v", q)
	}
	if got := nw.PoolStats(); got.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", got.Hits)
	}
	if got := nw.PoolStats(); got.Gets != 2 {
		t.Fatalf("Gets = %d, want 2", got.Gets)
	}
}

func TestStaleDoubleAndForeignReleasesAreInert(t *testing.T) {
	_, nw := testNet(t)
	s2 := sim.NewScheduler(2)
	other := New(s2)

	p := nw.NewPacket()
	nw.releasePacket(p)
	nw.releasePacket(p) // double release of a stale reference
	if st := nw.PoolStats(); st.Puts != 1 {
		t.Fatalf("double release not inert: Puts = %d", st.Puts)
	}

	q := nw.NewPacket()
	other.releasePacket(q) // foreign network
	if len(other.pktFree.All()) != 0 {
		t.Fatal("foreign release must be a no-op")
	}

	lit := &Packet{}
	nw.releasePacket(lit) // literal: never pooled
	nw.releaseConsumed(lit)
	if len(nw.pktFree.All()) != 0 {
		t.Fatal("literal release must be a no-op")
	}
}

// An ICMP error owns its quote and the quote its payload: releasing the
// error returns all of them to their pools, the quoted payload first.
func TestQuotedICMPRecycledWithItsError(t *testing.T) {
	_, nw := testNet(t)
	payload := &releasedPayload{}
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
	if st := nw.PoolStats(); st.Gets != st.Puts {
		t.Fatalf("pool counters %+v, want every draw returned", st)
	}
}

func TestReferenceModeAllocatesPlainly(t *testing.T) {
	_, nw := testNet(t)
	early := nw.NewPacket()
	nw.DisableRecycling()
	p := nw.NewPacket()
	if p.owner != nil {
		t.Fatal("no-recycle mode must hand out owner-less packets")
	}
	payload := &releasedPayload{}
	p.Payload = payload
	nw.releaseConsumed(p)
	nw.releasePacket(p)
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

// releasedPayload is a pooled payload in miniature: it notes that it went
// back to its pool.
type releasedPayload struct{ released bool }

func (p *releasedPayload) ReleasePayload() { p.released = true }

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
	nodes[0].Bind(ProtoICMP, 0, func(p *Packet) { reply = copyICMP(p) })

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
// with its ICMP body moved, not copied: the quote owns it, the error's
// handler reads it there intact, and it goes back to the ICMP freelist
// with the error.
func TestExpiredEchoQuoteKeepsItsBody(t *testing.T) {
	s, nw := testNet(t)
	nodes := buildChain(nw, 4, time.Millisecond)

	probe := nw.NewPacket()
	body := nw.NewICMP()
	body.Type, body.Seq = ICMPEchoRequest, 7
	errs := 0
	nodes[0].Bind(ProtoICMP, 0, func(p *Packet) {
		ic := p.Payload.(*ICMP)
		if ic.Type != ICMPTimeExceeded {
			return
		}
		errs++
		if q := ic.Quoted; q == nil || q.Payload != body || body.Type != ICMPEchoRequest || body.Seq != 7 {
			t.Fatalf("quote %+v does not own the echo body intact: %+v", q, body)
		}
	})
	probe.Dst, probe.Proto, probe.Size, probe.TTL, probe.Payload = nodes[3].Addr(), ProtoICMP, 64, 2, body
	nodes[0].Send(probe)
	s.Run()

	if errs != 1 {
		t.Fatalf("%d TimeExceeded came back, want 1", errs)
	}
	if body.owner != nw || !body.pooled {
		t.Fatal("the quoted echo body did not go back to the freelist with its error")
	}
	if st := nw.icmpFree.Stats(); st.Gets != st.Puts {
		t.Fatalf("ICMP body pool %+v, want every body back", st)
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

// Inherit moves what the old network lists, not what it holds: the listed
// packet and ICMP body become the new network's and are its next draws,
// while a packet still in flight at the handover goes home to the old
// network when it is released, never to the new one. Counters stay with
// their network, and a network in no-recycle mode neither gives nor takes.
func TestInheritMovesOnlyListedObjects(t *testing.T) {
	_, old := testNet(t)
	_, nw := testNet(t)
	held, listed := old.NewPacket(), old.NewPacket()
	ic := old.NewICMP()
	old.releasePacket(listed)
	old.releaseICMP(ic)
	oldStats, oldICMP := old.PoolStats(), old.icmpFree.Stats()

	nw.Inherit(old)
	if len(old.pktFree.All()) != 0 || len(old.icmpFree.All()) != 0 {
		t.Fatal("the old network still lists objects after the handover")
	}
	if old.PoolStats() != oldStats || old.icmpFree.Stats() != oldICMP || nw.PoolStats() != (PoolStats{}) {
		t.Fatalf("counters moved: old %+v %+v, new %+v", old.PoolStats(), old.icmpFree.Stats(), nw.PoolStats())
	}
	old.releasePacket(held)
	if len(nw.pktFree.All()) != 1 || held.owner != old {
		t.Fatal("a packet in flight at the handover joined the new network's list")
	}
	if p := nw.NewPacket(); p != listed || p.owner != nw {
		t.Fatal("the new network's first packet is not the one the old one listed, re-owned")
	}
	if got := nw.NewICMP(); got != ic || got.owner != nw {
		t.Fatal("the new network's first ICMP body is not the one the old one listed, re-owned")
	}
	if st := nw.PoolStats(); st.Gets != 1 || st.Hits != 1 {
		t.Fatalf("new network's packet counters %+v, want one Get, a Hit", st)
	}

	for _, giver := range []bool{true, false} {
		_, a := testNet(t)
		_, b := testNet(t)
		a.releasePacket(a.NewPacket())
		if giver {
			a.DisableRecycling()
		} else {
			b.DisableRecycling()
		}
		b.Inherit(a)
		if len(a.pktFree.All()) != 1 || len(b.pktFree.All()) != 0 {
			t.Errorf("no-recycle giver=%v: objects moved", giver)
		}
	}
}

// A hooked drop goes home like any other: the hook reads the packet, and
// once it returns the packet and its payload are back in their pools.
func TestHookedDropIsReleased(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	ab, _ := nw.Connect(a, b, LinkConfig{RateBps: 8e6, QueueBytes: 2500})
	a.AddRoute(b.Addr(), ab)
	b.Bind(ProtoUDP, 1, func(*Packet) {})
	var hooked []uint64
	ab.DropHook = func(_ sim.Time, p *Packet, _ DropReason) {
		if p.inPool {
			t.Error("a dropped packet was released before its hook ran")
		}
		hooked = append(hooked, p.ID)
	}
	payloads := make([]releasedPayload, 5)
	for i := range payloads {
		p := nw.NewPacket()
		p.Dst, p.DstPort, p.Proto, p.Size, p.Payload = b.Addr(), 1, ProtoUDP, 1000, &payloads[i]
		a.Send(p)
	}
	s.Run()

	if len(hooked) != 3 {
		t.Fatalf("%d drops hooked, want 3", len(hooked))
	}
	for i, pl := range payloads {
		if !pl.released {
			t.Errorf("packet %d's payload did not go home", i)
		}
	}
	if st := nw.PoolStats(); st.Gets != 5 || st.Puts != 5 {
		t.Errorf("packet pool %+v, want all 5 drawn and returned", st)
	}
}

// fakePool is a layer's pool in miniature: one freelist, handed over whole.
type fakePool struct{ sim.Freelist[int] }

func newFakePool(*Network) *fakePool { return new(fakePool) }

func (p *fakePool) HandOver(nw *Network) { PoolOf(nw, newFakePool).Adopt(&p.Freelist) }

func (p *fakePool) Pools(f func(string, PoolStats)) { f("fake", p.Stats()) }

// A layer's pool is made and listed once per network, the first time the
// layer asks; the walk yields the packet and ICMP pools and then each
// listed pool's rows; Inherit hands every listed pool to the same pool of
// the next network.
func TestPoolOfListsOnePoolPerNetwork(t *testing.T) {
	_, old := testNet(t)
	_, nw := testNet(t)
	p := PoolOf(old, newFakePool)
	if PoolOf(old, newFakePool) != p || len(old.pools) != 1 {
		t.Fatal("asking twice made a second pool")
	}
	p.Put(new(int))
	old.releasePacket(old.NewPacket())
	var rows []string
	old.Pools(func(name string, st PoolStats) {
		rows = append(rows, fmt.Sprintf("%s %d/%d/%d", name, st.Gets, st.Hits, st.Puts))
	})
	if got, want := strings.Join(rows, ", "), "packet 1/0/1, icmp 0/0/0, fake 0/0/1"; got != want {
		t.Fatalf("walk yields %q, want %q", got, want)
	}

	nw.Inherit(old)
	q := PoolOf(nw, newFakePool)
	if q == p || len(q.All()) != 1 || len(p.All()) != 0 {
		t.Fatal("Inherit did not move the listed object onto the new network's own pool")
	}
}
