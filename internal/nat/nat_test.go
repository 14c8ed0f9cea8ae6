package nat

import (
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// topo builds: client(192.168.1.2) - cpe(192.168.1.1, NAT->100.64.0.7)
// - core(100.64.0.1) - server(8.8.8.8).
func topo(t *testing.T) (*sim.Scheduler, *netem.Node, *netem.Node, *NAT) {
	t.Helper()
	s := sim.NewScheduler(3)
	nw := netem.New(s)
	client := nw.NewNode("client", netem.MustParseAddr("192.168.1.2"))
	cpe := nw.NewNode("cpe", netem.MustParseAddr("192.168.1.1"))
	core := nw.NewNode("core", netem.MustParseAddr("100.64.0.1"))
	server := nw.NewNode("server", netem.MustParseAddr("8.8.8.8"))

	d := netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)}
	c2cpe, cpe2c := nw.Connect(client, cpe, d)
	cpe2core, core2cpe := nw.Connect(cpe, core, d)
	core2srv, srv2core := nw.Connect(core, server, d)

	client.SetDefaultRoute(c2cpe)
	cpe.SetDefaultRoute(cpe2core)
	cpe.AddRoute(client.Addr(), cpe2c)
	core.SetDefaultRoute(core2srv)
	core.AddPrefixRoute(netem.MustParseAddr("100.64.0.7"), 32, core2cpe)
	server.SetDefaultRoute(srv2core)

	n := New(netem.MustParseAddr("100.64.0.7"), PrefixInside(netem.MustParseAddr("192.168.0.0"), 16))
	cpe.AttachDevice(n)
	return s, client, server, n
}

func TestNATRewritesAndRestores(t *testing.T) {
	s, client, server, n := topo(t)

	var atServer *netem.Packet
	server.Bind(netem.ProtoUDP, 53, func(p *netem.Packet) {
		cp := *p
		atServer = &cp
		// Reply.
		server.Send(&netem.Packet{
			Dst: p.Src, DstPort: p.SrcPort, SrcPort: 53,
			Proto: netem.ProtoUDP, Size: 100, Payload: "answer",
		})
	})
	var back *netem.Packet
	client.Bind(netem.ProtoUDP, 4444, func(p *netem.Packet) { back = p })

	client.Send(&netem.Packet{
		Dst: server.Addr(), DstPort: 53, SrcPort: 4444,
		Proto: netem.ProtoUDP, Size: 100, Payload: "query",
	})
	s.Run()

	if atServer == nil {
		t.Fatal("query not delivered")
	}
	if atServer.Src != netem.MustParseAddr("100.64.0.7") {
		t.Errorf("server saw source %v, want NAT external", atServer.Src)
	}
	if atServer.SrcPort == 4444 {
		t.Error("source port should have been rewritten")
	}
	if atServer.Checksum != netem.PseudoChecksum(atServer.Src, atServer.Dst, atServer.SrcPort, atServer.DstPort, atServer.Proto) {
		t.Error("NAT did not fix the checksum")
	}
	if back == nil {
		t.Fatal("reply not translated back")
	}
	if back.Dst != client.Addr() || back.DstPort != 4444 {
		t.Errorf("reply dst = %v:%d, want client:4444", back.Dst, back.DstPort)
	}
	if len(n.table) != 1 {
		t.Errorf("mappings = %d", len(n.table))
	}
}

func TestNATMappingStableAcrossPackets(t *testing.T) {
	s, client, server, n := topo(t)
	var ports []uint16
	server.Bind(netem.ProtoUDP, 53, func(p *netem.Packet) { ports = append(ports, p.SrcPort) })
	for i := 0; i < 5; i++ {
		client.Send(&netem.Packet{Dst: server.Addr(), DstPort: 53, SrcPort: 4444, Proto: netem.ProtoUDP, Size: 50})
	}
	client.Send(&netem.Packet{Dst: server.Addr(), DstPort: 53, SrcPort: 5555, Proto: netem.ProtoUDP, Size: 50})
	s.Run()
	if len(ports) != 6 {
		t.Fatalf("server got %d packets", len(ports))
	}
	for i := 1; i < 5; i++ {
		if ports[i] != ports[0] {
			t.Error("same inside tuple must map to the same external port")
		}
	}
	if ports[5] == ports[0] {
		t.Error("different inside tuples must map to different ports")
	}
	if len(n.table) != 2 {
		t.Errorf("mappings = %d", len(n.table))
	}
}

func TestNATEchoThroughNAT(t *testing.T) {
	s, client, server, _ := topo(t)
	server.EchoResponder = true

	var replyAt sim.Time
	client.Bind(netem.ProtoICMP, 0, func(p *netem.Packet) {
		if icmp := p.Payload.(*netem.ICMP); icmp.Type == netem.ICMPEchoReply {
			replyAt = s.Now()
		}
	})
	client.Send(&netem.Packet{
		Dst: server.Addr(), SrcPort: 77, Proto: netem.ProtoICMP, Size: 64,
		Payload: &netem.ICMP{Type: netem.ICMPEchoRequest, Seq: 1},
	})
	s.Run()
	if replyAt != sim.Time(30*time.Millisecond) {
		t.Fatalf("echo reply at %v, want 30ms (6 hops x 5ms)", replyAt)
	}
}

func TestNATDropsUnsolicitedInbound(t *testing.T) {
	s, client, server, _ := topo(t)
	got := 0
	client.Bind(netem.ProtoUDP, 9999, func(p *netem.Packet) { got++ })
	// Server sends to the NAT external address with a port that has no
	// mapping: must be swallowed.
	server.Send(&netem.Packet{
		Dst: netem.MustParseAddr("100.64.0.7"), DstPort: 12345, SrcPort: 1,
		Proto: netem.ProtoUDP, Size: 50,
	})
	s.Run()
	if got != 0 {
		t.Error("unsolicited inbound packet reached the inside host")
	}
}

func TestNATICMPErrorTranslation(t *testing.T) {
	// A TTL-limited probe from behind the NAT: the ICMP time-exceeded
	// from an outside router must come back, quoting the rewritten
	// packet (the Tracebox observable).
	s, client, _, _ := topo(t)
	// The error is recycled once the handler returns, so the handler
	// copies what the test reads, as traceroute does.
	var got *netem.ICMP
	var quotedSrc netem.Addr
	var quotedSum uint16
	client.Bind(netem.ProtoICMP, 0, func(p *netem.Packet) {
		ic := p.Payload.(*netem.ICMP)
		got, quotedSrc, quotedSum = &netem.ICMP{Type: ic.Type}, ic.Quoted.Src, ic.Quoted.Checksum
	})
	client.Send(&netem.Packet{
		Dst: netem.MustParseAddr("8.8.8.8"), DstPort: 33434, SrcPort: 6000,
		Proto: netem.ProtoUDP, Size: 60, TTL: 2, // expires at core
	})
	s.Run()
	if got == nil {
		t.Fatal("ICMP error did not come back through the NAT")
	}
	if got.Type != netem.ICMPTimeExceeded {
		t.Fatalf("got %v", got.Type)
	}
	if quotedSrc != client.Addr() {
		t.Errorf("quoted source = %v, want restored to the client (RFC 5508)", quotedSrc)
	}
	origSum := netem.PseudoChecksum(client.Addr(), netem.MustParseAddr("8.8.8.8"), 6000, 33434, netem.ProtoUDP)
	if quotedSum == origSum {
		t.Error("quoted checksum should differ from the original (NAT fixed it up)")
	}
}
