package netem

import "starlinkperf/internal/sim"

// Packet pooling: the datapath recycles packet wrappers (and the hot
// payload types) through per-Network freelists so a steady-state campaign
// forwards packets without allocating. The lifecycle is explicit:
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
//     packet's payload (sendICMPError moves it, it does not share it), so
//     releasing the error releases the quote and its payload too. A
//     holder that keeps the quote past delivery (traceroute/Tracebox)
//     Detaches it, and what it keeps counts as Shared.
//
// Safety comes from ownership checks rather than trust: releasing a
// foreign packet (owner nil or another network), releasing twice, or
// releasing through a stale generation-stamped reference are all inert
// no-ops. A handler or device that wants to keep a delivered packet past
// its synchronous call must Detach it first.
//
// No-recycle mode (DisableRecycling) turns every constructor into a plain
// allocation and every release into a no-op: nothing is ever reused, so
// nothing can be read after reuse. It exists for tests — it is the
// use-after-release oracle whole campaigns are compared against — and no
// Config, Options or flag reaches it.

// PayloadReleaser is implemented by pooled payload types (the TCP
// segment, the QUIC wire buffer). The datapath calls ReleasePayload once
// the carrying packet reaches its terminal point and the payload is
// provably unshared; implementations return the value to their owner's
// freelist. Values constructed outside a pool implement it as a no-op.
type PayloadReleaser interface {
	ReleasePayload()
}

// PayloadSharer is implemented by pooled payloads whose bytes are
// rewritten on reuse. Packet.Clone calls SharePayload before a second
// packet starts referencing the payload (a duplicating device), and
// Packet.Detach when a holder keeps it (a kept ICMP quote); the
// implementation leaves its pool for good, so no terminal point can
// recycle it under a holder.
type PayloadSharer interface {
	SharePayload()
}

// PoolStats counts packet-pool traffic; Shared counts Detached packets,
// kept ICMP quotes among them.
type PoolStats = sim.PoolStats

// PoolStats returns a copy of the packet-pool counters.
func (nw *Network) PoolStats() PoolStats { return nw.pktFree.Stats() }

// DisableRecycling puts the network in no-recycle mode for good: packets
// and ICMP bodies become plain owner-less allocations, and since the
// datapath releases only what it owns, the payloads they carry (TCP
// segments, QUIC wire buffers) never return to their pools either. For
// tests, before any traffic flows: a campaign must produce the same bytes
// whether or not anything is ever recycled, which is how a read of a
// released packet, segment or buffer shows up
// (TestDatapathCampaignEquivalence and TestPoisonedSegmentPoolMatchesReference
// in internal/core).
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

// ReleasePacket returns a packet obtained from NewPacket to the pool.
// gen must be the Packet.Gen observed when the reference was taken:
// a stale generation (the packet was already recycled under the holder),
// a double release, or a packet the pool does not own are inert no-ops.
func (nw *Network) ReleasePacket(p *Packet, gen uint32) {
	if p == nil || p.gen != gen {
		return
	}
	nw.releasePacket(p)
}

// releasePacket is the trusted internal release: the datapath calls it
// only at points where it structurally holds the sole live reference.
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

// TCPSegmentPool returns what SetTCPSegmentPool stored, nil before. Only
// internal/tcpsim uses the pair: every pooling connection on the network
// shares one segment freelist that outlives each of them.
func (nw *Network) TCPSegmentPool() any { return nw.tcpSegPool }

// SetTCPSegmentPool stores the network's TCP segment freelist.
func (nw *Network) SetTCPSegmentPool(pool any) { nw.tcpSegPool = pool }

// QUICWirePool returns what SetQUICWirePool stored, nil before. Only
// internal/quic uses the pair: every endpoint and connection on the
// network shares one buffer freelist that outlives each of them.
func (nw *Network) QUICWirePool() any { return nw.quicWirePool }

// SetQUICWirePool stores the network's QUIC buffer freelist.
func (nw *Network) SetQUICWirePool(pool any) { nw.quicWirePool = pool }
