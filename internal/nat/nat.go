// Package nat implements NAT and carrier-grade NAT middleboxes as netem
// devices. The paper's traceroute/Tracebox experiments observe exactly two
// address translations on the Starlink path — the CPE at 192.168.1.1 and
// a CGNAT at 100.64.0.1 — detectable because the translators rewrite
// source addresses, ports and checksums, which then show up in the quoted
// payload of ICMP errors generated deeper in the network.
package nat

import (
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// mappingTimeout expires idle mappings (real NATs time ICMP/UDP state out
// in tens of seconds; long-lived flows refresh on every packet).
const mappingTimeout = 5 * time.Minute

type mapKey struct {
	addr  netem.Addr
	port  uint16
	proto netem.Proto
}

// mapping is one translation. Both tables point at the same value, so a
// packet in either direction finds it with one lookup and keeps it alive
// with a field store.
type mapping struct {
	inside   mapKey
	extPort  uint16
	lastUsed sim.Time
}

// NAT is a source-NAT device. Attach it to the node that sits at the
// boundary: packets from Inside addresses leaving toward the outside get
// their source rewritten to External; return traffic and ICMP errors are
// translated back.
type NAT struct {
	// External is the address presented to the outside.
	External netem.Addr
	// Inside classifies addresses behind the NAT.
	Inside func(netem.Addr) bool

	table    map[mapKey]*mapping // by inside endpoint
	reverse  map[uint16]*mapping // by external port
	now      sim.Time
	nextPort uint16

	// Translations counts rewritten packets.
	Translations uint64
}

// New creates a NAT with the given external address and inside predicate.
func New(external netem.Addr, inside func(netem.Addr) bool) *NAT {
	return &NAT{
		External: external,
		Inside:   inside,
		table:    make(map[mapKey]*mapping),
		reverse:  make(map[uint16]*mapping),
		nextPort: 10000,
	}
}

// PrefixInside returns an inside predicate matching a prefix of the given
// bit length.
func PrefixInside(prefix netem.Addr, bits int) func(netem.Addr) bool {
	shift := 32 - bits
	return func(a netem.Addr) bool { return a>>shift == prefix>>shift }
}

// Process implements netem.Device: the ingress (PREROUTING) phase
// translates inbound packets addressed to the external address back to
// the inside host.
func (n *NAT) Process(node *netem.Node, pkt *netem.Packet) bool {
	n.now = node.Scheduler().Now()
	if pkt.Dst == n.External {
		return n.translateIn(pkt)
	}
	return true
}

// ProcessEgress implements netem.EgressDevice: the POSTROUTING phase
// rewrites the source of inside→outside packets. Running after TTL
// handling means ICMP errors generated by this node quote pre-NAT
// headers, like a Linux router.
func (n *NAT) ProcessEgress(node *netem.Node, pkt *netem.Packet) bool {
	if n.Inside(pkt.Src) && !n.Inside(pkt.Dst) {
		n.now = node.Scheduler().Now()
		n.translateOut(pkt)
	}
	return true
}

func (n *NAT) translateOut(pkt *netem.Packet) {
	key := mapKey{addr: pkt.Src, port: pkt.SrcPort, proto: pkt.Proto}
	m := n.table[key]
	if m == nil {
		m = &mapping{inside: key, extPort: n.allocPort()}
		n.table[key] = m
		n.reverse[m.extPort] = m
	}
	m.lastUsed = n.now
	pkt.Src = n.External
	pkt.SrcPort = m.extPort
	pkt.FixChecksum()
	n.Translations++
}

// translateIn rewrites inbound packets back to the inside host. Packets
// for unknown mappings are dropped (the NAT consumes them), like a real
// NAT with no session state.
func (n *NAT) translateIn(pkt *netem.Packet) bool {
	// ICMP errors carry the offending packet; translate using the quoted
	// source port and, per RFC 5508, rewrite the embedded packet's
	// source back to the inside mapping. The embedded transport checksum
	// is left exactly as the error generator observed it — the residue
	// Tracebox uses to count translators on the path.
	if pkt.Proto == netem.ProtoICMP {
		if icmp, ok := pkt.Payload.(*netem.ICMP); ok && icmp.Quoted != nil {
			m := n.reverse[icmp.Quoted.SrcPort]
			if m == nil || icmp.Quoted.Src != n.External {
				return false
			}
			pkt.Dst = m.inside.addr
			icmp.Quoted.Src = m.inside.addr
			icmp.Quoted.SrcPort = m.inside.port
			pkt.FixChecksum()
			n.Translations++
			return true
		}
		// Echo replies translate by the ICMP pseudo port.
		m := n.reverse[pkt.DstPort]
		if m == nil {
			return false
		}
		// Reply traffic keeps the mapping alive, exactly like the
		// UDP/TCP path below — otherwise a ping flow that only ever
		// refreshes on the outbound side expires mid-conversation.
		m.lastUsed = n.now
		pkt.Dst = m.inside.addr
		pkt.DstPort = m.inside.port
		pkt.FixChecksum()
		n.Translations++
		return true
	}

	m := n.reverse[pkt.DstPort]
	if m == nil || m.inside.proto != pkt.Proto {
		return false
	}
	m.lastUsed = n.now
	pkt.Dst = m.inside.addr
	pkt.DstPort = m.inside.port
	pkt.FixChecksum()
	n.Translations++
	return true
}

func (n *NAT) allocPort() uint16 {
	// Expire idle mappings once the table grows large, so long
	// campaigns cannot exhaust the port space.
	if len(n.reverse) > 40000 {
		n.expire()
	}
	for tries := 0; tries < 1<<17; tries++ {
		n.nextPort++
		if n.nextPort < 10000 {
			n.nextPort = 10000
		}
		if _, taken := n.reverse[n.nextPort]; !taken {
			return n.nextPort
		}
	}
	// Pathologically full even after expiry: evict everything (real
	// CGNATs shed state under pressure too, far less gracefully).
	n.table = make(map[mapKey]*mapping)
	n.reverse = make(map[uint16]*mapping)
	n.nextPort++
	if n.nextPort < 10000 {
		// Same wrap guard as the scan loop: without it a uint16 wrap
		// here hands out port 0 (and the whole reserved range below
		// 10000) right after an eviction.
		n.nextPort = 10000
	}
	return n.nextPort
}

// expire removes mappings idle for longer than mappingTimeout.
func (n *NAT) expire() {
	for ext, m := range n.reverse {
		if n.now.Sub(m.lastUsed) > mappingTimeout {
			delete(n.table, m.inside)
			delete(n.reverse, ext)
		}
	}
}
