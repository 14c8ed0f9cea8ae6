package netem

import (
	"fmt"
	"time"

	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// DelayFunc returns the one-way propagation delay of a link at a given
// instant. LEO access links vary with satellite motion; terrestrial links
// are constant.
type DelayFunc func(now sim.Time) time.Duration

// ConstantDelay returns a DelayFunc with a fixed delay.
func ConstantDelay(d time.Duration) DelayFunc {
	return func(sim.Time) time.Duration { return d }
}

// Fidelity selects how much of the link machinery a packet traverses.
// The zero value is FidelityFull — the reference datapath every lower
// tier is held bit-identical to (on configurations where the skipped
// machinery is provably unreachable; see Network.AutoSelectFidelity).
type Fidelity uint8

const (
	// FidelityFull is the complete datapath: DropTail queue, serialization
	// at RateBps, outage and medium loss at the end of serialization, then
	// propagation + jitter. Always correct; the in-tree reference.
	FidelityFull Fidelity = iota
	// FidelityDelayOnly skips the serialization/queue hop (sound only when
	// RateBps == 0 and QueueBytes == 0, where the full path's queue
	// machinery is unreachable) but still applies outage, medium loss,
	// propagation and jitter — in one scheduler event instead of two.
	FidelityDelayOnly
	// FidelityFast is pure delay passthrough for infinite-rate lossless
	// mesh/cross links: propagation only, nothing else evaluated.
	FidelityFast
)

// String implements fmt.Stringer.
func (f Fidelity) String() string {
	switch f {
	case FidelityFull:
		return "full"
	case FidelityDelayOnly:
		return "delay-only"
	case FidelityFast:
		return "fast"
	default:
		return "fidelity?"
	}
}

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// RateBps is the serialization rate in bits per second; 0 means
	// infinitely fast (no serialization delay, no queue buildup).
	RateBps float64
	// Delay is the propagation delay; nil means zero.
	Delay DelayFunc
	// QueueBytes caps the DropTail egress queue (including the packet in
	// service); 0 means unbounded.
	QueueBytes int
	// Loss is the medium loss process applied as packets leave the
	// queue; nil means lossless.
	Loss LossModel
	// Down reports link outage at an instant; packets finishing
	// serialization during an outage are dropped. nil means always up.
	Down func(now sim.Time) bool
	// Jitter, if non-nil, returns an extra per-packet propagation delay
	// (e.g. LEO scheduling jitter). It must be non-negative: the FIFO
	// arrival clamp and the fast-forward closed forms both assume delays
	// only stretch forward. A negative sample panics deterministically at
	// the instant it is drawn rather than silently corrupting arrivals.
	Jitter func(now sim.Time) time.Duration
	// Fidelity selects the datapath tier (see the Fidelity constants).
	// The zero value is FidelityFull. Most callers leave it zero and let
	// Network.AutoSelectFidelity downgrade links whose configuration makes
	// the skipped machinery unreachable; setting a lower tier explicitly
	// on a link with a rate, queue, loss or outage changes semantics and
	// is on the caller.
	Fidelity Fidelity
}

// DropReason classifies why a link dropped a packet.
type DropReason uint8

// Drop reasons, distinguished because the paper distinguishes congestion
// losses (queue overflow under load) from medium losses and outages.
const (
	DropQueueFull DropReason = iota
	DropMedium
	DropOutage
	DropTTL
	DropNoRoute
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropMedium:
		return "medium"
	case DropOutage:
		return "outage"
	case DropTTL:
		return "ttl"
	case DropNoRoute:
		return "no-route"
	default:
		return "drop?"
	}
}

// LinkStats counts link activity.
type LinkStats struct {
	Sent       uint64 // packets accepted for transmission
	Delivered  uint64 // packets handed to the far node
	DropsQueue uint64
	DropsLoss  uint64
	DropsDown  uint64
	// QueuedPeak is the peak queue occupancy in bytes, counting the
	// packet in service (it occupies its bytes until serialization ends),
	// matching how QueueBytes caps the queue. Rate-0 links never queue,
	// so their peak stays 0.
	QueuedPeak int
}

// Link is one direction of a connection between two nodes.
type Link struct {
	name string
	net  *Network
	to   *Node
	cfg  LinkConfig

	busyUntil   sim.Time
	queuedBytes int
	lastArrival sim.Time
	stats       LinkStats

	// autoTier marks cfg.Fidelity as chosen by AutoSelectFidelity rather
	// than the caller: the Set* mutators then re-derive the tier so a
	// post-selection SetRate/SetLoss/SetDown can never leave a downgraded
	// link with machinery the tier would skip.
	autoTier bool

	// obs is the shared network observability bundle, nil when disabled;
	// obsSubj is this link's interned trace subject.
	obs     *netObs
	obsSubj obs.Subj

	// cross, when non-nil, marks this as a cross-partition link: instead
	// of scheduling delivery locally, transmit stages a copied record on
	// the PDES cross edge (crosslink.go).
	cross *crossEndpoint

	// pipe holds the packets in flight (pipe.go), allocated on first send:
	// a fleet builds ~100 k links that carry a probe or nothing at all, and
	// one more word keeps Link in its 224-byte size class.
	pipe *linkPipe

	// DropHook, when set, observes every packet the link drops.
	DropHook func(now sim.Time, pkt *Packet, reason DropReason)
	// DeliverHook, when set, observes every packet as it arrives at the
	// far node (after propagation). Captures attach here.
	DeliverHook func(now sim.Time, pkt *Packet)
}

// Name returns the link's diagnostic name ("a->b").
func (l *Link) Name() string { return l.name }

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueuedBytes returns the current egress queue occupancy.
func (l *Link) QueuedBytes() int { return l.queuedBytes }

// SetLoss replaces the link's medium loss model.
func (l *Link) SetLoss(m LossModel) { l.cfg.Loss = m; l.retier() }

// SetRate replaces the link's serialization rate.
func (l *Link) SetRate(bps float64) { l.cfg.RateBps = bps; l.retier() }

// SetDown replaces the link's outage predicate.
func (l *Link) SetDown(down func(sim.Time) bool) { l.cfg.Down = down; l.retier() }

// Fidelity returns the link's current datapath tier.
func (l *Link) Fidelity() Fidelity { return l.cfg.Fidelity }

// autoFidelity derives the highest-performing tier the configuration
// provably supports: no rate and no queue cap means the queue machinery
// is unreachable (FidelityDelayOnly); additionally no loss, no outage and
// no jitter means nothing but propagation can happen (FidelityFast).
func (c *LinkConfig) autoFidelity() Fidelity {
	if c.RateBps > 0 || c.QueueBytes > 0 {
		return FidelityFull
	}
	if c.Loss == nil && c.Down == nil && c.Jitter == nil {
		return FidelityFast
	}
	return FidelityDelayOnly
}

// retier re-derives an auto-selected tier after a config mutation.
// Explicitly configured tiers are left alone — the caller asked for that
// semantics — but an auto-downgraded link must never keep a tier whose
// skipped machinery a mutation just made reachable.
func (l *Link) retier() {
	if l.autoTier {
		l.cfg.Fidelity = l.cfg.autoFidelity()
	}
}

// Config returns the link configuration (by value).
func (l *Link) Config() LinkConfig { return l.cfg }

// send puts pkt on the link. Queue overflow drops immediately (congestion
// loss); otherwise the packet serializes FIFO at the link rate, may be
// lost to the medium or an outage at the end of serialization, and is
// delivered to the far node after propagation. The lower fidelity tiers
// collapse the serialization hop (see bypass).
func (l *Link) send(pkt *Packet) {
	if l.cfg.Fidelity != FidelityFull {
		if arrival, ok := l.bypass(pkt); ok {
			l.enqueue(&l.pipes().prop, arrival, pkt, linkDeliver)
		}
		return
	}
	if txDone, ok := l.admit(pkt); ok {
		l.enqueue(&l.pipes().ser, txDone, pkt, linkTxDone)
	}
}

// admit applies the DropTail cap and the serialization clock; it returns
// the instant serialization of pkt ends, or false if the queue was full.
//
// Queue-depth metrics and enqueue/dequeue trace records are emitted only
// for links with a real queue (RateBps > 0): a rate-0 link's depth is
// identically zero, and keeping those records out of the trace is what
// lets the lower fidelity tiers (which collapse the serialization hop)
// stay byte-identical to this path on the obs exports.
func (l *Link) admit(pkt *Packet) (txDone sim.Time, ok bool) {
	now := l.net.sched.Now()

	if l.cfg.QueueBytes > 0 && l.queuedBytes+pkt.Size > l.cfg.QueueBytes {
		l.stats.DropsQueue++
		l.drop(now, pkt, DropQueueFull)
		return 0, false
	}

	txDone = now
	if l.cfg.RateBps > 0 {
		tx := time.Duration(float64(pkt.Size*8) / l.cfg.RateBps * float64(time.Second))
		start := now
		if l.busyUntil > start {
			start = l.busyUntil
		}
		txDone = start.Add(tx)
		l.busyUntil = txDone
		l.queuedBytes += pkt.Size
		if l.queuedBytes > l.stats.QueuedPeak {
			l.stats.QueuedPeak = l.queuedBytes
		}
		if l.obs != nil {
			l.obs.queueDepth.Observe(int64(l.queuedBytes))
			l.obs.tr.Emit(now, obs.KindEnqueue, l.obsSubj, int64(l.queuedBytes), int64(pkt.Size))
		}
	}
	l.stats.Sent++
	if l.obs != nil {
		l.obs.sent.Inc()
	}
	return txDone, true
}

// bypass is the delay-only/fast datapath: one scheduler event instead of
// the serialization + arrival pair. The queue machinery is skipped
// outright (sound because auto-selection only picks these tiers when
// RateBps == 0 and QueueBytes == 0, where the full path would compute
// txDone == now with zero occupancy), and FidelityFast additionally skips
// outage, loss and jitter (sound when all three are nil). Everything that
// remains — drop checks, propagation, the FIFO arrival clamp, stats and
// obs counters, cross-partition staging — evaluates at the same instant
// with the same RNG draw order as the full path, which is what the
// bit-identity suites pin. It returns the arrival instant, or false when
// the packet was dropped or staged across partitions.
func (l *Link) bypass(pkt *Packet) (arrival sim.Time, ok bool) {
	now := l.net.sched.Now()
	l.stats.Sent++
	if l.obs != nil {
		l.obs.sent.Inc()
	}
	return l.propagate(now, pkt, l.cfg.Fidelity == FidelityDelayOnly)
}

// jitterAt draws one jitter sample and enforces the LinkConfig.Jitter
// contract: a negative sample panics at the draw instant, identically on
// every tier, so closed-form delay math downstream can rely on jitter
// only ever stretching arrivals forward.
func (l *Link) jitterAt(at sim.Time) time.Duration {
	j := l.cfg.Jitter(at)
	if j < 0 {
		panic(fmt.Sprintf("netem: link %s: Jitter returned %v at t=%d; the contract requires non-negative jitter", l.name, j, int64(at)))
	}
	return j
}

// LastArrival returns the arrival instant of the latest packet put on
// the wire — the link's FIFO clamp state. Because the clamp takes the
// max of raw arrivals, this value is order-independent: it equals the
// maximum raw arrival over all packets sent so far, which is what lets
// analytic fast-forwards both test it (would the next packet be
// clamped?) and maintain it exactly (AccountBypassed).
func (l *Link) LastArrival() sim.Time { return l.lastArrival }

// AccountBypassed credits n packets that an analytic fast-forward proved
// this link would have carried and delivered: Sent/Delivered stats and
// the obs counters advance as if each packet had traversed the link, and
// the FIFO clamp state absorbs the last credited packet's raw arrival
// (max-merge — exactly the value full emulation would have left, since
// lastArrival is the max of raw arrivals in any order). Only meaningful
// on queue-less tiers — a link with a rate has busyUntil and occupancy
// state that closed forms upstream don't model, so crediting one is a
// bug, caught here.
func (l *Link) AccountBypassed(n uint64, lastArrival sim.Time) {
	if l.cfg.Fidelity == FidelityFull || l.cfg.RateBps > 0 {
		panic(fmt.Sprintf("netem: AccountBypassed on %s, which runs the full datapath", l.name))
	}
	l.stats.Sent += n
	l.stats.Delivered += n
	if lastArrival > l.lastArrival {
		l.lastArrival = lastArrival
	}
	if l.obs != nil {
		l.obs.sent.Add(n)
		l.obs.delivered.Add(n)
	}
}

// transmit runs at the end of serialization: dequeue, then outage, medium
// loss and propagation. It returns the arrival instant, or false when the
// packet was dropped or staged across partitions.
func (l *Link) transmit(pkt *Packet) (arrival sim.Time, ok bool) {
	at := l.net.sched.Now()
	if l.cfg.RateBps > 0 {
		l.queuedBytes -= pkt.Size
		if l.obs != nil {
			l.obs.tr.Emit(at, obs.KindDequeue, l.obsSubj, int64(l.queuedBytes), int64(pkt.Size))
		}
	}
	return l.propagate(at, pkt, true)
}

// propagate is the tail both datapaths share: outage, medium loss and
// jitter (when impaired — FidelityFast has none to evaluate), propagation
// delay, the FIFO arrival clamp, and the hand-off to the cross edge on a
// cross-partition link.
func (l *Link) propagate(at sim.Time, pkt *Packet, impaired bool) (arrival sim.Time, ok bool) {
	if impaired {
		if l.cfg.Down != nil && l.cfg.Down(at) {
			l.stats.DropsDown++
			l.drop(at, pkt, DropOutage)
			return 0, false
		}
		if l.cfg.Loss != nil && l.cfg.Loss.Lost(at) {
			l.stats.DropsLoss++
			l.drop(at, pkt, DropMedium)
			return 0, false
		}
	}
	var prop time.Duration
	if l.cfg.Delay != nil {
		prop = l.cfg.Delay(at)
	}
	if impaired && l.cfg.Jitter != nil {
		prop += l.jitterAt(at)
	}
	arrival = at.Add(prop)
	// A link is a FIFO pipe: jitter and shrinking path delays must
	// not reorder packets in flight.
	if arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival
	if l.cross != nil {
		// Cross-partition link: the propagation hop happens on the
		// destination partition's clock via the cross edge (crosslink.go).
		l.stageCross(arrival, pkt)
		return 0, false
	}
	return arrival, true
}

// deliver hands the packet to the far node.
func (l *Link) deliver(pkt *Packet) {
	l.stats.Delivered++
	if l.obs != nil {
		l.obs.delivered.Inc()
	}
	if l.DeliverHook != nil {
		l.DeliverHook(l.net.sched.Now(), pkt)
	}
	l.to.receive(pkt)
}

func (l *Link) drop(now sim.Time, pkt *Packet, reason DropReason) {
	if l.obs != nil {
		switch reason {
		case DropQueueFull:
			l.obs.dropQueue.Inc()
		case DropMedium:
			l.obs.dropMedium.Inc()
		case DropOutage:
			l.obs.dropOutage.Inc()
		}
		l.obs.tr.Emit(now, obs.KindDrop, l.obsSubj, int64(reason), int64(pkt.Size))
	}
	if l.DropHook != nil {
		// The hook may retain the packet (loss-inspection tests do), so a
		// hooked drop is left to the GC.
		l.DropHook(now, pkt, reason)
		return
	}
	l.net.releaseConsumed(pkt)
}
