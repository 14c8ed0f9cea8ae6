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
	name string // "a->b", for panic messages
	net  *Network
	to   *Node
	cfg  LinkConfig

	busyUntil   sim.Time
	queuedBytes int
	lastArrival sim.Time
	stats       LinkStats

	// obs is the shared network observability bundle, nil when disabled;
	// obsSubj is this link's interned trace subject.
	obs     *netObs
	obsSubj obs.Subj

	// pipe holds the packets in flight (pipe.go), allocated on first send:
	// a fleet shard's gateway links mostly carry a probe or nothing at all,
	// and one word keeps Link in its 208-byte size class.
	pipe *linkPipe

	// DropHook, when set, observes every packet the link drops. The
	// packet goes back to its pool once the hook returns, so the hook
	// copies out what it reads later.
	DropHook func(now sim.Time, pkt *Packet, reason DropReason)
	// DeliverHook, when set, observes every packet as it arrives at the
	// far node (after propagation). Captures attach here.
	DeliverHook func(now sim.Time, pkt *Packet)
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueuedBytes returns the current egress queue occupancy.
func (l *Link) QueuedBytes() int {
	l.settle()
	return l.queuedBytes
}

// SetLoss replaces the link's medium loss model. Packets still serializing
// meet it as their serialization ends.
func (l *Link) SetLoss(m LossModel) {
	l.unhold()
	l.cfg.Loss = m
}

// SetRate replaces the link's serialization rate. Packets already
// serializing keep their schedule; 0 lets later packets pass them.
func (l *Link) SetRate(bps float64) {
	l.unhold()
	l.cfg.RateBps = bps
}

// send puts pkt on the link. Queue overflow drops immediately (congestion
// loss). On a rated link the packet then serializes FIFO at the link rate
// and is transmitted when that ends (pipe.go: one scheduler event or two);
// a link without a rate has no serialization hop, so the packet is
// transmitted at once, in one event.
func (l *Link) send(pkt *Packet) {
	txDone, ok := l.admit(pkt)
	if !ok {
		return
	}
	if l.cfg.RateBps > 0 {
		l.sendRated(pkt, txDone)
	} else if arrival, ok := l.transmit(pkt); ok {
		l.enqueue(&l.pipes().prop, arrival, pkt, linkDeliver)
	}
}

// admit applies the DropTail cap and the serialization clock; it returns
// the instant serialization of pkt ends (now, without a rate), or false if
// the queue was full.
//
// Only a rated link has a queue: occupancy and queue-depth metrics exist
// for RateBps > 0 alone, and a rate-0 link's depth is identically zero.
func (l *Link) admit(pkt *Packet) (txDone sim.Time, ok bool) {
	now := l.net.sched.Now()
	l.settle()

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
		}
	}
	l.stats.Sent++
	if l.obs != nil {
		l.obs.sent.Inc()
	}
	return txDone, true
}

// jitterAt draws one jitter sample and enforces the LinkConfig.Jitter
// contract: a negative sample panics at the draw instant, so closed-form
// delay math downstream can rely on jitter only ever stretching arrivals
// forward.
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
func (l *Link) LastArrival() sim.Time {
	l.settle()
	return l.lastArrival
}

// AccountBypassed credits n packets that an analytic fast-forward proved
// this link would have carried and delivered, as if each had traversed it:
// Adopt for the link's own state, CountBypassed for the network's counters.
func (l *Link) AccountBypassed(n uint64, lastArrival sim.Time) {
	l.Adopt(n, lastArrival)
	l.net.CountBypassed(n)
}

// Adopt is AccountBypassed less the network counters, for a link created
// after CountBypassed counted its traversals: Sent/Delivered advance and the
// FIFO clamp max-merges the last credited raw arrival (what full emulation
// would have left: lastArrival is the max of raw arrivals in any order). A
// rated link has busyUntil and occupancy state that closed forms upstream
// don't model, so crediting one is a bug, caught here.
func (l *Link) Adopt(n uint64, lastArrival sim.Time) {
	if l.cfg.RateBps > 0 {
		panic(fmt.Sprintf("netem: bypass credit on %s, which has a serialization queue", l.name))
	}
	l.stats.Sent += n
	l.stats.Delivered += n
	if lastArrival > l.lastArrival {
		l.lastArrival = lastArrival
	}
}

// transmit puts pkt on the wire, now: outage, medium loss, propagation
// delay and jitter, and the FIFO arrival clamp. It returns the arrival
// instant, or false when the packet was dropped.
func (l *Link) transmit(pkt *Packet) (arrival sim.Time, ok bool) {
	at := l.net.sched.Now()
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
	var prop time.Duration
	if l.cfg.Delay != nil {
		prop = l.cfg.Delay(at)
	}
	if l.cfg.Jitter != nil {
		prop += l.jitterAt(at)
	}
	arrival = at.Add(prop)
	// A link is a FIFO pipe: jitter and shrinking path delays must
	// not reorder packets in flight.
	if arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival
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
		l.obs.drops[reason].Inc()
		l.obs.tr.Emit(now, obs.KindDrop, l.obsSubj, int64(reason), int64(pkt.Size))
	}
	if l.DropHook != nil {
		l.DropHook(now, pkt, reason)
	}
	l.net.releaseConsumed(pkt)
}
