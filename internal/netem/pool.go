package netem

import "starlinkperf/internal/sim"

// Packet pooling: the datapath recycles packet wrappers (and the hot
// payload types) through per-Network freelists so a steady-state campaign
// forwards packets without allocating. There is one ownership rule: the
// datapath owns every pooled object, and handlers and devices consume what
// they are given synchronously. A handler copies out what it reads later
// (traceroute copies an ICMP quote's header); it never keeps the packet.
// The lifecycle is explicit:
//
//   - Network.NewPacket hands out a zeroed packet owned by the network.
//   - The datapath releases it at its terminal point — final delivery
//     (after the bound handler or echo responder returns), device
//     consumption, link drop, TTL expiry, or no-route — via the release
//     helpers below.
//   - Payloads are released together with the wrapper: *ICMP bodies go
//     back to the ICMP freelist, PayloadReleaser payloads (TCP segments,
//     QUIC wire buffers) return to their owner, and everything else is
//     left to the GC.
//   - An ICMP error owns its quote, and the quote owns the offending
//     packet's payload (sendICMPError moves it), so releasing the error
//     releases the quote and its payload too.
//
// So once a campaign has drained, every pool reads Gets == Puts. Releasing
// a foreign packet (owner nil or another network) or releasing twice is an
// inert no-op; gen counts recycles, so a test can tell that a reference it
// kept was recycled underneath it.
//
// No-recycle mode (DisableRecycling) turns every constructor into a plain
// allocation and every release into a no-op: nothing is ever reused, so
// nothing can be read after reuse. It exists for tests — it is the
// use-after-release oracle whole campaigns are compared against, and the
// network a test device that keeps or duplicates packets runs on — and no
// Config, Options or flag reaches it.

// PayloadReleaser is implemented by pooled payload types (the TCP
// segment, the QUIC wire buffer). The datapath calls ReleasePayload once
// the carrying packet reaches its terminal point; implementations return
// the value to their owner's freelist. Values constructed outside a pool
// implement it as a no-op.
type PayloadReleaser interface {
	ReleasePayload()
}

// PoolStats counts packet-pool traffic.
type PoolStats = sim.PoolStats

// PoolStats returns a copy of the packet-pool counters.
func (nw *Network) PoolStats() PoolStats { return nw.pktFree.Stats() }

// ICMPPoolStats returns a copy of the ICMP body pool's counters.
func (nw *Network) ICMPPoolStats() PoolStats { return nw.icmpFree.Stats() }

// DisableRecycling puts the network in no-recycle mode for good: packets
// and ICMP bodies become plain owner-less allocations, and since the
// datapath releases only what it owns, the payloads they carry (TCP
// segments, QUIC wire buffers) never return to their pools either. For
// tests, before any traffic flows: a campaign must produce the same bytes
// whether or not anything is ever recycled, which is how a read of a
// released packet, segment or buffer shows up
// (TestDatapathCampaignEquivalence and TestPoisonedSegmentPoolMatchesReference
// in internal/core). Such a network neither gives nor takes pools in
// Inherit, so switch it before that too.
func (nw *Network) DisableRecycling() { nw.noRecycle = true }

// Recycling reports whether the network reuses what its pools take back:
// false after DisableRecycling. Pools kept outside netem (tcpsim's
// in-flight rings, quic's reassembly chunks) read it to follow the same
// mode.
func (nw *Network) Recycling() bool { return !nw.noRecycle }

// NewPacket returns a zeroed packet for sending on this network, from the
// freelist when there is one; in no-recycle mode it is a plain allocation
// the pool never touches again.
func (nw *Network) NewPacket() *Packet {
	if nw.noRecycle {
		return &Packet{}
	}
	if p := nw.pktFree.Get(); p != nil {
		p.inPool = false
		return p
	}
	return &Packet{owner: nw}
}

// releasePacket returns a packet to the pool: the datapath calls it only
// at points where it structurally holds the sole live reference.
func (nw *Network) releasePacket(p *Packet) {
	if p == nil || p.owner != nw || p.inPool {
		return
	}
	*p = Packet{owner: nw, gen: p.gen + 1, inPool: true}
	nw.pktFree.Put(p)
}

// releaseConsumed recycles a packet that reached a terminal point, with
// its payload per the policy above: an ICMP error's quote goes first, so
// the quoted segment, wire buffer or ICMP body goes home with it.
func (nw *Network) releaseConsumed(p *Packet) {
	if p == nil || p.owner != nw || p.inPool {
		return
	}
	switch pl := p.Payload.(type) {
	case *ICMP:
		nw.releaseConsumed(pl.Quoted)
		nw.releaseICMP(pl)
	case PayloadReleaser:
		pl.ReleasePayload()
	}
	nw.releasePacket(p)
}

// NewICMP returns a zeroed ICMP body from the pool (or a plain
// allocation in no-recycle mode).
func (nw *Network) NewICMP() *ICMP {
	if nw.noRecycle {
		return &ICMP{}
	}
	if ic := nw.icmpFree.Get(); ic != nil {
		ic.pooled = false
		return ic
	}
	return &ICMP{owner: nw}
}

// releaseICMP returns a pooled ICMP body. Foreign or already-pooled
// bodies are inert no-ops.
func (nw *Network) releaseICMP(ic *ICMP) {
	if ic == nil || ic.owner != nw || ic.pooled {
		return
	}
	*ic = ICMP{owner: nw, pooled: true}
	nw.icmpFree.Put(ic)
}

// Inherit hands prev's pools to nw, before nw's first packet: every
// packet, ICMP body, TCP segment and ring and QUIC buffer, sent record and
// frame listed on prev's freelists moves onto nw's, re-stamped as nw's,
// and prev's lists are left empty. What prev still holds (packets in
// flight when its campaign hit its budget) keeps prev as its owner, so
// releasing it later never reaches nw. The counters stay with their
// network, so each keeps Gets = Puts for its own traffic. A nil
// prev, prev itself or a network in no-recycle mode on either side hands
// nothing over. A sweep worker calls it on each testbed it builds with the
// network of the one before, so a pool's high-water mark is reached once
// per worker rather than once per network.
func (nw *Network) Inherit(prev *Network) {
	if prev == nil || prev == nw || nw.noRecycle || prev.noRecycle {
		return
	}
	for _, p := range prev.pktFree.All() {
		p.owner = nw
	}
	nw.pktFree.Adopt(&prev.pktFree)
	for _, ic := range prev.icmpFree.All() {
		ic.owner = nw
	}
	nw.icmpFree.Adopt(&prev.icmpFree)
	for _, tp := range [...]TransportPool{prev.tcpSegPool, prev.quicWirePool} {
		if tp != nil {
			tp.HandOver(nw)
		}
	}
}

// TransportPool is a transport's freelists on one network, stored with
// SetTCPSegmentPool or SetQUICWirePool: opaque to netem, which cannot
// import the transports, except for the handover Inherit asks of it.
type TransportPool interface {
	// HandOver moves the listed objects onto the same pool of nw,
	// creating it there if need be, and re-stamps their owner.
	HandOver(nw *Network)
}

// TCPSegmentPool returns what SetTCPSegmentPool stored, nil before. Only
// internal/tcpsim uses the pair: every pooling connection on the network
// shares one segment freelist that outlives each of them.
func (nw *Network) TCPSegmentPool() TransportPool { return nw.tcpSegPool }

// SetTCPSegmentPool stores the network's TCP segment freelist.
func (nw *Network) SetTCPSegmentPool(pool TransportPool) { nw.tcpSegPool = pool }

// QUICWirePool returns what SetQUICWirePool stored, nil before. Only
// internal/quic uses the pair: every endpoint and connection on the
// network shares one buffer freelist that outlives each of them.
func (nw *Network) QUICWirePool() TransportPool { return nw.quicWirePool }

// SetQUICWirePool stores the network's QUIC buffer freelist.
func (nw *Network) SetQUICWirePool(pool TransportPool) { nw.quicWirePool = pool }
