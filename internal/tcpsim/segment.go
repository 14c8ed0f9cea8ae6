// Package tcpsim implements a packet-level TCP model over the netem
// emulator: three-way handshake, an emulated TLS setup phase, cumulative
// ACKs with SACK-style scoreboarding, CUBIC congestion control (shared
// with the QUIC implementation via internal/cc), RTO with backoff,
// receive-window advertisement with Linux-style autotuning (131072 bytes
// growing to a 6 291 456-byte cap — the paper's testbed kernel defaults),
// and FIN teardown.
//
// Payloads are modeled as byte counts rather than byte contents: every
// observable the paper's TCP experiments report (throughput, setup time,
// queueing interaction, PEP behaviour) depends on segment sizes and
// sequence arithmetic, not payload bytes. Connections are constructed
// either through the Dial/Listen node glue or directly via NewConn with a
// custom transmit function — which is how the PEP middlebox splices
// spoofed connections into the path.
package tcpsim

import (
	"fmt"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// Flags is the TCP flag set.
type Flags uint8

// TCP flags.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// String implements fmt.Stringer.
func (f Flags) String() string {
	s := ""
	if f&FlagSYN != 0 {
		s += "S"
	}
	if f&FlagACK != 0 {
		s += "A"
	}
	if f&FlagFIN != 0 {
		s += "F"
	}
	if f&FlagRST != 0 {
		s += "R"
	}
	if s == "" {
		return "-"
	}
	return s
}

// SackBlock reports a received byte range [Start, End) above the
// cumulative ACK.
type SackBlock = sim.Span

// Segment is the TCP header + abstract payload carried as a netem packet
// payload.
type Segment struct {
	Flags Flags
	// Seq is the sequence number of the first payload byte (bytes, not
	// the wire's modulo-2^32 arithmetic — the emulator does not need
	// wraparound).
	Seq uint64
	// Len is the payload length in bytes.
	Len int
	// Ack is the cumulative acknowledgement (valid when FlagACK).
	Ack uint64
	// Sack carries selective acknowledgement blocks above Ack.
	Sack []SackBlock
	// Wnd is the advertised receive window in bytes.
	Wnd uint64
	// TS is the transmission timestamp (TSval); Echo returns the TS of
	// the segment being acknowledged (TSecr) for RTT sampling, zero when
	// the acked segment was a retransmission (Karn's rule).
	TS   sim.Time
	Echo sim.Time
	// Retx marks retransmitted payload.
	Retx bool
	// Msgs carries application messages anchored at stream offsets
	// inside this segment's payload (see Conn.WriteMsg).
	Msgs []AppMsg

	// Pool bookkeeping: owner is the freelist the segment returns to (nil
	// for literals, which are never recycled); pooled guards double
	// release. The receiver copies everything it needs out of a delivered
	// segment, so the datapath can recycle it at the packet's terminal
	// point via ReleasePayload.
	owner  *segPool
	pooled bool
}

// segPool is the TCP freelist of one netem.Network: every pooling
// connection on it draws its segments from the pool and the datapath
// returns them to it. The same goes for in-flight rings: a connection
// takes one at NewConn and gives it back, emptied, at teardown, so a
// connection dialed after another one closed starts with the array that
// one grew. A sweep worker's next network inherits both lists
// (netem.Network.Inherit), so the high-water mark — the most segments
// alive at once — is reached once per sweep worker, not once per network
// or connection. One scheduler drives a network and cross links between
// partitions carry no TCP, hence no lock.
type segPool struct {
	sim.Freelist[Segment]
	rings sim.Freelist[sim.Ring[txRecord]]
	nw    *netem.Network
}

// poolOf returns the segment pool of node's network, creating it on first
// use; nil — plain allocation — without a node.
func poolOf(node *netem.Node) *segPool {
	if node == nil {
		return nil
	}
	return segPoolOf(node.Network())
}

// segPoolOf returns nw's segment pool, creating it on first use.
func segPoolOf(nw *netem.Network) *segPool {
	return netem.PoolOf(nw, func(nw *netem.Network) *segPool { return &segPool{nw: nw} })
}

// HandOver implements netem.TransportPool: the listed segments, Sack and
// Msgs arrays kept, become nw's, and the listed rings go with them.
func (p *segPool) HandOver(nw *netem.Network) {
	to := segPoolOf(nw)
	for _, s := range p.All() {
		s.owner = to
	}
	to.Adopt(&p.Freelist)
	to.rings.Adopt(&p.rings)
}

// Pools implements netem.TransportPool: the ring pool's Gets count
// connections opened, its Puts connections torn down.
func (p *segPool) Pools(f func(name string, st sim.PoolStats)) {
	f("tcp segment", p.Stats())
	f("tcp ring", p.rings.Stats())
}

// get returns a zeroed segment that keeps its Sack and Msgs backing.
func (p *segPool) get() *Segment {
	s := p.Get()
	if s == nil {
		return &Segment{owner: p}
	}
	*s = Segment{owner: p, Sack: s.Sack[:0], Msgs: s.Msgs[:0]}
	return s
}

// getRing returns an empty in-flight ring, keeping the array of a
// connection that closed earlier.
func (p *segPool) getRing() *sim.Ring[txRecord] {
	if r := p.rings.Get(); r != nil {
		return r
	}
	return new(sim.Ring[txRecord])
}

// putRing empties the in-flight ring of a connection that closed and lists
// it for the next getRing; a network in no-recycle mode never reuses one.
func (p *segPool) putRing(r *sim.Ring[txRecord]) {
	if !p.nw.Recycling() {
		return
	}
	r.Reset()
	p.rings.Put(r)
}

// poisonSeq is what a segment in the freelist holds for sequence numbers.
const poisonSeq uint64 = 0xDBDBDBDBDBDBDBDB

// ReleasePayload implements netem.PayloadReleaser: the segment returns to
// its pool, keeping the Sack and Msgs backing arrays. It sits there
// poisoned (get zeroes it again), so a reader that kept it past its
// packet's terminal point acts on values no connection has rather than on
// plausible stale ones. Foreign (owner-nil) or already-pooled segments are
// inert.
func (s *Segment) ReleasePayload() {
	p := s.owner
	if p == nil || s.pooled {
		return
	}
	clear(s.Msgs) // drop payload references so the GC can collect them
	s.Flags, s.Seq, s.Ack, s.Len = 0xF0, poisonSeq, poisonSeq, -1
	s.Sack, s.Msgs, s.pooled = s.Sack[:0], s.Msgs[:0], true
	p.Put(s)
}

// AppMsg is an application message anchored at a stream offset. Payloads
// are modeled as byte counts, so request/response protocols attach their
// semantic content (an object request, a replay command) to the first
// byte of the write that carries them.
type AppMsg struct {
	Off uint64
	Msg any
}

// String implements fmt.Stringer.
func (s *Segment) String() string {
	return fmt.Sprintf("tcp{%v seq=%d len=%d ack=%d wnd=%d}", s.Flags, s.Seq, s.Len, s.Ack, s.Wnd)
}

// Wire overheads: IPv4 (20) + TCP (20) + timestamp/SACK options (~12).
const (
	headerOverhead = 52
	synSize        = 60
)

// wireSize returns the on-the-wire size of the segment.
func (s *Segment) wireSize() int {
	if s.Flags&FlagSYN != 0 {
		return synSize
	}
	return headerOverhead + s.Len
}

// flowKey identifies a TCP flow by its 4-tuple as seen at a given point.
type flowKey struct {
	srcAddr netem.Addr
	srcPort uint16
	dstAddr netem.Addr
	dstPort uint16
}

func keyOf(pkt *netem.Packet) flowKey {
	return flowKey{srcAddr: pkt.Src, srcPort: pkt.SrcPort, dstAddr: pkt.Dst, dstPort: pkt.DstPort}
}
