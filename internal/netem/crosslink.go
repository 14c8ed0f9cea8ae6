package netem

import (
	"fmt"

	"starlinkperf/internal/sim"
)

// Cross-partition links: the netem endpoints of the conservative PDES
// engine (internal/sim). A partitioned scenario instantiates one Network
// per partition, each on its own Scheduler, and wires partitions together
// with AddCrossLink: the sending half is an ordinary Link on the source
// network (same queueing, loss, outage and FIFO semantics, same stats and
// obs records), but at the moment a local link would schedule delivery it
// instead stages a wireRecord — a by-value copy of the packet — on the
// sim.CrossEdge. The driver's barrier flips staged records to the
// destination partition, which materializes a packet from its own pool
// and receives it. No *Packet, *ICMP or Hops backing ever crosses a
// partition boundary, so the per-Network freelists stay single-threaded.
//
// Record pooling follows the same phase discipline as the edge itself:
// the source pops free records while its window executes, the destination
// appends consumed records to retired, and the barrier (single-threaded)
// moves retired back to free. The happens-before edges of the window
// barrier make all three phases race-free without locks.

// wireRecord is a packet serialized for partition crossing: header fields
// by value, Hops copied into the record's own backing, and the one
// payload shape the scenarios send across partitions (*ICMP without a
// quote) flattened into value fields.
type wireRecord struct {
	ep *crossEndpoint

	id       uint64
	src, dst Addr
	srcPort  uint16
	dstPort  uint16
	proto    Proto
	ttl      int
	size     int
	checksum uint16
	sentAt   sim.Time
	hops     []Addr

	hasICMP  bool
	icmpType ICMPType
	icmpSeq  int
	icmpData any
}

// crossEndpoint is the shared state of one cross link: the edge it stages
// onto, the destination node (owned by the remote partition), and the
// record freelist cycling through the barrier.
type crossEndpoint struct {
	edge    *sim.CrossEdge
	dst     *Node
	free    []*wireRecord // popped by the source partition only
	retired []*wireRecord // appended by the destination partition only
}

// AddCrossLink creates a unidirectional link from a local node to a node
// in another partition's Network, staging deliveries onto edge instead of
// scheduling them locally. cfg semantics match AddLink exactly up to the
// propagation hop; edge's lookahead must lower-bound cfg's total
// propagation delay (sim.CrossEdge.Send enforces it per message).
// DeliverHook is unsupported on cross links — it would run on the
// destination partition's goroutine against source-owned state.
func (nw *Network) AddCrossLink(from, to *Node, edge *sim.CrossEdge, cfg LinkConfig) *Link {
	if edge == nil {
		panic("netem: AddCrossLink requires a cross edge")
	}
	if to.net == nw {
		panic(fmt.Sprintf("netem: cross link %s->%s joins nodes of the same network; use AddLink", from.name, to.name))
	}
	l := nw.AddLink(from, to, cfg)
	ep := &crossEndpoint{edge: edge, dst: to}
	l.cross = ep
	edge.OnBarrier = ep.recycle
	nw.crossLinks = append(nw.crossLinks, l)
	return l
}

// CrossLinks returns the links of this network that terminate in another
// partition.
func (nw *Network) CrossLinks() []*Link {
	return nw.crossLinks
}

// stageCross runs in transmit's tail position for cross links: copy the
// packet into a wireRecord, release the source-side packet, and stage the
// record at its arrival time. Delivered is counted here — the source side
// owns the link stats, and once staged the record cannot be lost.
func (l *Link) stageCross(arrival sim.Time, pkt *Packet) {
	ep := l.cross
	var rec *wireRecord
	if n := len(ep.free); n > 0 {
		rec = ep.free[n-1]
		ep.free[n-1] = nil
		ep.free = ep.free[:n-1]
	} else {
		rec = &wireRecord{ep: ep}
	}
	rec.id = pkt.ID
	rec.src, rec.dst = pkt.Src, pkt.Dst
	rec.srcPort, rec.dstPort = pkt.SrcPort, pkt.DstPort
	rec.proto = pkt.Proto
	rec.ttl = pkt.TTL
	rec.size = pkt.Size
	rec.checksum = pkt.Checksum
	rec.sentAt = pkt.SentAt
	rec.hops = append(rec.hops[:0], pkt.Hops...)
	switch pl := pkt.Payload.(type) {
	case nil:
		rec.hasICMP = false
		rec.icmpData = nil
	case *ICMP:
		if pl.Quoted != nil {
			panic(fmt.Sprintf("netem: cross link %s cannot carry an ICMP quote across partitions", l.name))
		}
		rec.hasICMP = true
		rec.icmpType, rec.icmpSeq, rec.icmpData = pl.Type, pl.Seq, pl.Data
	default:
		panic(fmt.Sprintf("netem: cross link %s cannot carry payload type %T across partitions", l.name, pkt.Payload))
	}
	l.stats.Delivered++
	if l.obs != nil {
		l.obs.delivered.Inc()
	}
	l.net.releaseConsumed(pkt)
	ep.edge.Send(arrival, crossDeliver, rec)
}

// crossDeliver executes on the destination partition's scheduler: rebuild
// the packet from the record using the destination network's pools,
// retire the record, and hand the packet to the node.
func crossDeliver(arg any) {
	rec := arg.(*wireRecord)
	ep := rec.ep
	dnet := ep.dst.net
	pkt := dnet.NewPacket()
	pkt.ID = rec.id
	pkt.Src, pkt.Dst = rec.src, rec.dst
	pkt.SrcPort, pkt.DstPort = rec.srcPort, rec.dstPort
	pkt.Proto = rec.proto
	pkt.TTL = rec.ttl
	pkt.Size = rec.size
	pkt.Checksum = rec.checksum
	pkt.SentAt = rec.sentAt
	pkt.Hops = append(pkt.Hops[:0], rec.hops...)
	if rec.hasICMP {
		body := dnet.NewICMP()
		body.Type, body.Seq, body.Data = rec.icmpType, rec.icmpSeq, rec.icmpData
		pkt.Payload = body
	}
	ep.retired = append(ep.retired, rec)
	ep.dst.receive(pkt)
}

// recycle is the edge's barrier hook: move records the destination
// retired this window back to the source-side freelist. Runs
// single-threaded between windows.
func (ep *crossEndpoint) recycle() {
	ep.free = append(ep.free, ep.retired...)
	for i := range ep.retired {
		ep.retired[i] = nil
	}
	ep.retired = ep.retired[:0]
}
