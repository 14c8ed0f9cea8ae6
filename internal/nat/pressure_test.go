package nat

import (
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// The tests in this file exercise the NAT's state table under pressure —
// expiry of idle mappings, port allocation after a pathological eviction,
// and the reply-path keepalive — directly against the unexported
// machinery, so they can set up table states that would take hours of
// simulated traffic to reach through packets.

func pressureNAT() *NAT {
	return New(netem.MustParseAddr("100.64.0.7"),
		PrefixInside(netem.MustParseAddr("192.168.0.0"), 16))
}

func outboundUDP(srcPort uint16) *netem.Packet {
	return &netem.Packet{
		Src: netem.MustParseAddr("192.168.1.2"), SrcPort: srcPort,
		Dst: netem.MustParseAddr("8.8.8.8"), DstPort: 53,
		Proto: netem.ProtoUDP, Size: 50,
	}
}

func TestNATExpiresIdleMappings(t *testing.T) {
	n := pressureNAT()
	n.now = 0
	n.translateOut(outboundUDP(4444))
	stale := n.table[mapKey{addr: netem.MustParseAddr("192.168.1.2"), port: 4444, proto: netem.ProtoUDP}]

	// A second flow refreshes itself just before the expiry sweep.
	n.now = sim.Time(4 * time.Minute)
	n.translateOut(outboundUDP(5555))

	n.now = sim.Time(6 * time.Minute)
	n.expire()
	if len(n.table) != 1 {
		t.Fatalf("mappings after expiry = %d, want 1 (idle flow dropped, fresh kept)", len(n.table))
	}
	if _, alive := n.reverse[stale.extPort]; alive {
		t.Error("idle mapping survived an expiry sweep past mappingTimeout")
	}
}

// TestNATAllocPortAfterEviction drives allocPort into its evict-everything
// fallback with nextPort positioned so the post-eviction increment wraps
// the uint16. The wrap guard must kick in: without it the NAT hands out
// port 0 (and then the whole reserved range below 10000).
func TestNATAllocPortAfterEviction(t *testing.T) {
	n := pressureNAT()
	n.now = sim.Time(time.Hour)
	// Occupy every allocatable port with a fresh mapping so neither the
	// expiry sweep nor the scan loop can find a free one.
	for p := 10000; p <= 65535; p++ {
		ext := uint16(p)
		key := mapKey{addr: netem.MustParseAddr("192.168.1.2"), port: ext, proto: netem.ProtoUDP}
		m := &mapping{inside: key, extPort: ext, lastUsed: n.now}
		n.table[key] = m
		n.reverse[ext] = m
	}
	// 1<<17 scan tries over the 55536-port cycle starting here end on
	// 65535, so the eviction path's increment is exactly the wrapping one.
	n.nextPort = 45535

	got := n.allocPort()
	if got < 10000 {
		t.Fatalf("allocPort after eviction returned %d, want a port >= 10000", got)
	}
	if len(n.table) != 0 {
		t.Errorf("eviction left %d mappings, want 0", len(n.table))
	}
}

// TestNATEchoReplyRefreshesMapping pins the reply-path keepalive for ICMP
// echo: a ping flow whose inbound replies are its only recent traffic must
// not expire mid-conversation.
func TestNATEchoReplyRefreshesMapping(t *testing.T) {
	n := pressureNAT()
	n.now = 0
	out := &netem.Packet{
		Src: netem.MustParseAddr("192.168.1.2"), SrcPort: 77,
		Dst:   netem.MustParseAddr("8.8.8.8"),
		Proto: netem.ProtoICMP, Size: 64,
		Payload: &netem.ICMP{Type: netem.ICMPEchoRequest, Seq: 1},
	}
	n.translateOut(out)
	ext := out.SrcPort

	// Only reply traffic from here on.
	n.now = sim.Time(4 * time.Minute)
	reply := &netem.Packet{
		Src: netem.MustParseAddr("8.8.8.8"), Dst: n.External, DstPort: ext,
		Proto: netem.ProtoICMP, Size: 64,
		Payload: &netem.ICMP{Type: netem.ICMPEchoReply, Seq: 1},
	}
	if !n.translateIn(reply) {
		t.Fatal("echo reply not translated")
	}
	if reply.Dst != netem.MustParseAddr("192.168.1.2") || reply.DstPort != 77 {
		t.Fatalf("reply translated to %v:%d, want inside host 192.168.1.2:77", reply.Dst, reply.DstPort)
	}

	// 8 minutes after creation but only 4 after the last reply: the sweep
	// must keep the mapping alive.
	n.now = sim.Time(8 * time.Minute)
	n.expire()
	if len(n.table) != 1 {
		t.Fatal("mapping kept alive only by echo replies expired mid-conversation")
	}
}
