package netem

import "starlinkperf/internal/sim"

// Handler receives packets delivered to a bound (proto, port) of a node.
type Handler func(pkt *Packet)

// Device is a middlebox function attached to a node. Devices see every
// packet the node touches (transit and locally addressed) on ingress,
// before TTL processing and delivery; they may rewrite the packet,
// swallow it, or let it pass.
type Device interface {
	// Process handles pkt at node n. Returning forward=false consumes
	// the packet (the device either dropped it or took ownership, e.g. a
	// PEP terminating a TCP connection).
	Process(n *Node, pkt *Packet) (forward bool)
}

// EgressDevice is the optional second middlebox phase, run as packets
// leave the node (after TTL handling and ICMP error generation) — the
// POSTROUTING hook where source NAT happens on real routers, which is
// why TTL-expired probes are quoted with pre-NAT headers by the NAT
// itself but post-NAT headers by everything beyond it.
type EgressDevice interface {
	ProcessEgress(n *Node, pkt *Packet) (forward bool)
}

// Node is a host or router in the emulated network.
type Node struct {
	name string
	addr Addr
	net  *Network

	// Route and handler tables, each one slice sorted by its lookup key
	// and edited in place (fib.go); the route cache is cleared at every
	// route edit.
	exact        []exactRoute
	prefixes     []prefixRoute
	defaultRoute *Link
	routeCache   [routeCacheSize]exactRoute
	handlers     []handlerEntry

	devices []Device

	// ephemeral tracks the last client source port handed out, one entry
	// per protocol. It lives on the node (not in a package-level table)
	// so independent simulations running on different goroutines never
	// share an allocator.
	ephemeral []ephemeralPort

	// EchoResponder makes the node answer ICMP echo requests, like the
	// RIPE anchors and speedtest servers do.
	EchoResponder bool

	// Forwarded counts transit packets; Delivered counts local ones.
	Forwarded uint64
	Delivered uint64
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Addr returns the node address.
func (n *Node) Addr() Addr { return n.addr }

// Network returns the owning network.
func (n *Node) Network() *Network { return n.net }

// Scheduler returns the simulation scheduler, for transports that need
// timers.
func (n *Node) Scheduler() *sim.Scheduler { return n.net.sched }

type ephemeralPort struct {
	proto Proto
	last  uint16
}

// EphemeralPort allocates the next client source port for proto. Ports
// count up from floor+1; each call returns a fresh port. Allocation is
// per-node and deterministic in call order.
func (n *Node) EphemeralPort(proto Proto, floor uint16) uint16 {
	i := 0
	for i < len(n.ephemeral) && n.ephemeral[i].proto != proto {
		i++
	}
	if i == len(n.ephemeral) {
		n.ephemeral = append(n.ephemeral, ephemeralPort{proto: proto})
	}
	if floor == 0xffff {
		// Degenerate floor: keep at least one allocatable port above it.
		floor = 0xfffe
	}
	p := n.ephemeral[i].last
	if p < floor {
		p = floor
	}
	p++
	if p == 0 {
		// uint16 wrap: restart just above the floor instead of handing
		// out port 0 and the well-known range below it — the same defect
		// class as the NAT allocPort wrap fixed earlier.
		p = floor + 1
	}
	n.ephemeral[i].last = p
	return p
}

// NewPacket returns a packet for sending from this node (see
// Network.NewPacket for the pooling contract).
func (n *Node) NewPacket() *Packet { return n.net.NewPacket() }

// AttachDevice appends a middlebox device to the node's processing chain.
func (n *Node) AttachDevice(d Device) { n.devices = append(n.devices, d) }

// Send originates a packet from this node: it stamps defaults (TTL,
// checksum, send time, unique ID) and routes it. Stamping skips packets
// that already carry an ID, so paths that re-inject an already-sent
// packet (a duplicating device, an error re-send) preserve the original
// ID/SentAt correlation fields.
func (n *Node) Send(pkt *Packet) {
	if pkt.TTL == 0 {
		pkt.TTL = DefaultTTL
	}
	if pkt.Src == 0 {
		pkt.Src = n.addr
	}
	if pkt.ID == 0 {
		pkt.ID = n.net.nextPacketID()
		pkt.SentAt = n.net.sched.Now()
	}
	pkt.FixChecksum()
	n.route(pkt)
}

// receive processes a packet arriving at this node from a link.
func (n *Node) receive(pkt *Packet) {
	for _, d := range n.devices {
		if !d.Process(n, pkt) {
			// Consumed: the device dropped it or fed it synchronously
			// into a local endpoint (PEP, NAT swallow). Devices that
			// retain the packet must Detach it.
			n.net.releaseConsumed(pkt)
			return
		}
	}

	if pkt.Dst == n.addr {
		n.deliver(pkt)
		return
	}

	// Transit: decrement TTL, expire if needed, forward.
	pkt.TTL--
	if pkt.TTL <= 0 {
		n.sendICMPError(pkt, ICMPTimeExceeded)
		// The quote took the payload, so only the wrapper is left.
		n.net.releasePacket(pkt)
		return
	}
	n.Forwarded++
	n.route(pkt)
}

func (n *Node) deliver(pkt *Packet) {
	n.Delivered++
	if pkt.Proto == ProtoICMP && n.EchoResponder {
		if icmp, ok := pkt.Payload.(*ICMP); ok && icmp.Type == ICMPEchoRequest {
			// Mirror the port pair so translators can map the reply
			// back (the ICMP identifier rides in the port fields).
			reply := n.net.NewPacket()
			reply.Dst = pkt.Src
			reply.DstPort = pkt.SrcPort
			reply.SrcPort = pkt.DstPort
			reply.Proto = ProtoICMP
			reply.Size = pkt.Size
			body := n.net.NewICMP()
			body.Type, body.Seq, body.Data = ICMPEchoReply, icmp.Seq, icmp.Data
			reply.Payload = body
			n.Send(reply)
			n.net.releaseConsumed(pkt)
			return
		}
	}
	if h := n.lookupHandler(pkt.Proto, pkt.DstPort); h != nil {
		h(pkt)
		// Handlers consume synchronously; anything they keep (the quoted
		// probe of an ICMP error, a whole error message) must be Detached.
		n.net.releaseConsumed(pkt)
		return
	}
	// No listener: a real host would answer TCP with RST and UDP with
	// port unreachable; the emulator folds both into DestUnreachable.
	if pkt.Proto != ProtoICMP {
		n.sendICMPError(pkt, ICMPDestUnreachable)
		n.net.releasePacket(pkt) // the quote took the payload: wrapper only
		return
	}
	n.net.releaseConsumed(pkt)
}

// sendICMPError emits an ICMP error quoting the offending packet as this
// node observed it (post any NAT rewriting upstream — which is exactly
// what lets Tracebox detect those NATs).
func (n *Node) sendICMPError(offending *Packet, t ICMPType) {
	if offending.Proto == ProtoICMP {
		if icmp, ok := offending.Payload.(*ICMP); ok &&
			(icmp.Type == ICMPTimeExceeded || icmp.Type == ICMPDestUnreachable) {
			return // never ICMP-error an ICMP error
		}
	}
	// The error, its body and its quote come from the pools; the quote
	// takes offending's payload, so callers release only its wrapper.
	quote := n.net.NewPacket()
	offending.copyTo(quote)
	offending.Payload = nil
	body := n.net.NewICMP()
	body.Type, body.Quoted = t, quote
	msg := n.net.NewPacket()
	msg.Dst, msg.Proto, msg.Size, msg.Payload = offending.Src, ProtoICMP, 64, body
	n.Send(msg)
}

// route forwards pkt out of the best matching route. Packets without a
// route are answered with DestUnreachable to the source.
func (n *Node) route(pkt *Packet) {
	if pkt.Dst == n.addr {
		// Locally addressed packet "sent" by this node: deliver
		// directly (loopback).
		n.deliver(pkt)
		return
	}
	for _, d := range n.devices {
		if ed, ok := d.(EgressDevice); ok {
			if !ed.ProcessEgress(n, pkt) {
				n.net.releaseConsumed(pkt)
				return
			}
		}
	}
	if l := n.lookupRoute(pkt.Dst); l != nil {
		l.send(pkt)
		return
	}
	if pkt.Src != n.addr {
		n.sendICMPError(pkt, ICMPDestUnreachable)
		n.net.releasePacket(pkt) // the quote took the payload: wrapper only
		return
	}
	n.net.releaseConsumed(pkt)
}
