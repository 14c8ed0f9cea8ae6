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
// So once a campaign has drained, every pool Pools yields reads Gets ==
// Puts. Releasing a foreign packet (owner nil or another network) or
// releasing twice is an inert no-op.
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

// Pools calls f with the name and counters of each of the network's
// freelists: "packet" and "icmp", then each listed TransportPool's ("tcp
// segment", "tcp ring"; "quic wire", "quic sent", "quic frame").
func (nw *Network) Pools(f func(name string, st PoolStats)) {
	f("packet", nw.pktFree.Stats())
	f("icmp", nw.icmpFree.Stats())
	for _, tp := range nw.pools {
		tp.Pools(f)
	}
}

// PoolStats returns the packet pool's counters, the walk's first row.
func (nw *Network) PoolStats() (st PoolStats) {
	nw.Pools(func(name string, s PoolStats) {
		if name == "packet" {
			st = s
		}
	})
	return st
}

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
// in-flight rings, quic's wire buffers) read it to follow the same
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
	*p = Packet{owner: nw, inPool: true}
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
// object listed on one of prev's freelists — packets, ICMP bodies and each
// TransportPool's — moves onto the same freelist of nw, re-stamped as nw's,
// and prev's lists are left empty. What prev still holds (packets in
// flight when its campaign hit its budget) keeps prev as its owner, so
// releasing it later never reaches nw. The counters stay with their
// network, so each keeps Gets = Puts for its own traffic. A nil prev, prev
// itself or a network in no-recycle mode on either side hands nothing
// over. A sweep worker calls it on each testbed it builds with the network
// of the one before, so a pool's high-water mark is reached once per
// worker rather than once per network.
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
	for _, tp := range prev.pools {
		tp.HandOver(nw)
	}
}

// TransportPool is a layer's freelists on one network, listed by PoolOf:
// opaque to netem, which cannot import the layers above it and asks of
// them only what Inherit and Pools need. They share the packet pool's
// lifetime and single-scheduler concurrency domain.
type TransportPool interface {
	// HandOver moves the listed objects onto the same pool of nw
	// (PoolOf), re-stamping their owner.
	HandOver(nw *Network)
	// Pools calls f with the name and counters of each of its freelists.
	Pools(f func(name string, st PoolStats))
}

// PoolOf returns nw's pool of type P, made by create and listed the first
// time it is asked for. A layer asks once per connection or endpoint, not
// per packet, so all of them on the network share one set of freelists.
func PoolOf[P TransportPool](nw *Network, create func(*Network) P) P {
	for _, tp := range nw.pools {
		if p, ok := tp.(P); ok {
			return p
		}
	}
	if nw.pools == nil {
		nw.pools = nw.poolBuf[:0]
	}
	p := create(nw)
	nw.pools = append(nw.pools, p)
	return p
}
