package netem

import (
	"starlinkperf/internal/sim"
)

// Proto identifies the transport protocol of a packet. Middleboxes branch
// on it: PEPs intercept TCP but must pass UDP (QUIC) through untouched.
type Proto uint8

// Supported protocol numbers (values follow IANA for familiarity).
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String implements fmt.Stringer.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return "proto?"
	}
}

// DefaultTTL is the initial hop limit of locally originated packets.
const DefaultTTL = 64

// Packet is the unit the emulator forwards. Payload carries a typed value
// owned by the sending transport (QUIC datagram bytes, a TCP segment, an
// ICMP body); Size is the wire size in bytes and is what queues and
// serialization see.
type Packet struct {
	ID       uint64 // unique per network, for capture correlation
	Src, Dst Addr
	SrcPort  uint16
	DstPort  uint16
	Proto    Proto
	TTL      int
	Size     int
	// Checksum covers the pseudo header (addresses, ports, proto). NATs
	// rewrite addresses and must recompute it; Tracebox-style tooling
	// compares the quoted value against what it sent to detect them.
	Checksum uint16
	Payload  any
	SentAt   sim.Time

	// Pool bookkeeping (see pool.go). owner is the network whose freelist
	// the packet belongs to — nil for literals, which the datapath never
	// recycles; inPool guards double release.
	owner  *Network
	inPool bool
}

// PseudoChecksum computes the toy internet checksum over the fields NATs
// rewrite. It is deliberately simple: the paper's observable is "the
// checksum changed across this middlebox", not its arithmetic.
func PseudoChecksum(src, dst Addr, srcPort, dstPort uint16, proto Proto) uint16 {
	sum := uint32(src>>16) + uint32(src&0xffff) +
		uint32(dst>>16) + uint32(dst&0xffff) +
		uint32(srcPort) + uint32(dstPort) + uint32(proto)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// FixChecksum recomputes the packet checksum from its current header
// fields.
func (p *Packet) FixChecksum() {
	p.Checksum = PseudoChecksum(p.Src, p.Dst, p.SrcPort, p.DstPort, p.Proto)
}

// copyTo copies p's header and payload reference into q, which keeps its
// own pool identity.
func (p *Packet) copyTo(q *Packet) {
	owner := q.owner
	*q = *p
	q.owner, q.inPool = owner, false
}

// ICMPType enumerates the ICMP-like messages the emulator itself
// originates or that endpoints exchange.
type ICMPType uint8

// ICMP message types.
const (
	ICMPEchoRequest ICMPType = iota
	ICMPEchoReply
	ICMPTimeExceeded
	ICMPDestUnreachable
)

// String implements fmt.Stringer.
func (t ICMPType) String() string {
	switch t {
	case ICMPEchoRequest:
		return "echo-request"
	case ICMPEchoReply:
		return "echo-reply"
	case ICMPTimeExceeded:
		return "time-exceeded"
	case ICMPDestUnreachable:
		return "dest-unreachable"
	default:
		return "icmp?"
	}
}

// ICMP is the payload of ProtoICMP packets. Error messages quote the
// offending packet as the issuing node observed it — the mechanism
// Tracebox exploits to detect header-rewriting middleboxes.
type ICMP struct {
	Type   ICMPType
	Seq    int
	Quoted *Packet // for TimeExceeded / DestUnreachable
	Data   any     // opaque echo payload

	// Pool bookkeeping, mirroring Packet's (see pool.go). The body owns
	// its quote: both return to the pools when the message is released.
	owner  *Network
	pooled bool
}
