package netem

import (
	"fmt"

	"starlinkperf/internal/sim"
)

// A link is a FIFO at both of its hops — the end of serialization is
// monotone through busyUntil, arrival through the lastArrival clamp — so
// each hop keeps its in-flight packets in a ring and arms one scheduler
// timer, for the head only, instead of one timer per packet.
//
// The firing order of the whole simulation is the one per-packet timers
// would produce. The scheduler orders purely by (at, seq); a packet takes
// the sequence number of each of its events with ReserveSeq at the very
// instant its own timer would have been armed: at admit for the end of its
// serialization, and for an arrival on a link without a rate; as
// serialization ends for the arrival that follows it. Each ring is in key
// order (push keeps it so) and its head is armed under its key, so the
// scheduler's queue always holds the minimum pending key of every link,
// which is all it needs to pick the global minimum. What changes is the
// queue's size: O(links + connection timers) rather than O(packets in
// flight).
//
// One event or two. The end of serialization has something to decide only
// on a link with a loss process, an outage predicate or jitter, all drawn
// at that instant. On any other rated link (the LAN and terrestrial hops) a
// packet whose link has nothing serializing in two-event form goes straight
// to the propagation ring at admit, arriving at max(lastArrival, txDone +
// Delay(txDone)), and fires only its arrival — whose timer is armed at
// admit, so it takes its sequence number there too, the one right after
// its serialization end's. Until that serialization-end key has passed
// (sim.Scheduler.Passed) the packet is held: its bytes still occupy the
// queue, and its arrival is not yet the link's clamp. Whoever next needs
// those — a later admit, QueuedBytes, LastArrival, the arrival itself —
// settles the held packets whose key is behind the clock. A mutator
// (SetRate, SetLoss) gives the held packets still serializing
// their serialization-end event back, under the key they reserved, so the
// mutation applies to them exactly as it would have to their own timers,
// and their arrival takes a sequence number as that event fires.
//
// An arrival thus sorts among the events at its instant by when it was
// armed, which differs between the forms: an event armed while the packet
// serializes, for the instant it arrives, fires after a one-event arrival
// and before a two-event one. Observing a link changes neither: an
// observer only counts and records.

// pipeSlot is one in-flight packet and the key its event fires under.
type pipeSlot struct {
	at  sim.Time
	seq uint64
	pkt *Packet
}

// hop is one hop's in-flight packets in (at, seq) order. While any is
// queued, timer is armed under the head's key (unhold may have to stop
// it).
type hop struct {
	sim.Ring[pipeSlot]
	timer sim.TimerHandle
}

// linkPipe is the in-flight state of one link: packets propagating to the
// far node, and, from its first send at a rate, the rest.
type linkPipe struct {
	prop  hop
	rated *ratedPipe
}

// ratedPipe is what only a rated link needs: packets waiting for the end of
// their serialization, and the end of serialization of each held packet —
// the last held.Len() of prop — in order. An instant in a ring beside the
// hops, not in every slot: the deep queues of the access links are
// serialization rings, which never need one. Kept apart from linkPipe
// because a fleet's gateway links have no rate.
type ratedPipe struct {
	ser  hop
	held sim.Ring[sim.Time]
}

func (l *Link) pipes() *linkPipe {
	if l.pipe == nil {
		l.pipe = new(linkPipe)
	}
	return l.pipe
}

// push appends s, whose seq is newer than every seq queued, and reports
// whether s.at kept the hop in order; an instant earlier than the tail's is
// refused and leaves the hop untouched.
func (h *hop) push(s pipeSlot) bool {
	if h.Len() > 0 && s.at < h.Back().at {
		return false
	}
	h.Push(s)
	return true
}

// enqueue puts pkt in flight on one hop, due at the given instant. It
// reserves the event's sequence number here and arms the hop's timer only
// when the ring was empty. Both hops hand out non-decreasing instants
// (busyUntil, the lastArrival clamp); one that did not would fire its
// packets out of key order, so it stops the run here.
func (l *Link) enqueue(h *hop, at sim.Time, pkt *Packet, fn sim.EventFunc) {
	s := l.net.sched
	seq := s.ReserveSeq()
	if !h.push(pipeSlot{at: at, seq: seq, pkt: pkt}) {
		panic(fmt.Sprintf("netem: link %s: packet due at t=%d, before one already in flight on the same hop", l.name, int64(at)))
	}
	if h.Len() == 1 {
		h.timer = s.AtFuncSeq(at, seq, fn, l)
	}
}

// dequeue pops the packet whose event is firing and re-arms the hop's
// timer under the next head's reserved key, which is never below the one
// being fired.
func (l *Link) dequeue(h *hop, fn sim.EventFunc) *Packet {
	pkt := h.Pop().pkt
	if h.Len() > 0 {
		next := h.Front()
		h.timer = l.net.sched.AtFuncSeq(next.at, next.seq, fn, l)
	}
	return pkt
}

// sendRated puts a packet admitted at a rate in flight: in one event when
// nothing is decided at the end of its serialization, in two otherwise.
func (l *Link) sendRated(pkt *Packet, txDone sim.Time) {
	p := l.pipes()
	if p.rated == nil {
		p.rated = new(ratedPipe)
	}
	r := p.rated
	if l.cfg.Loss != nil || l.cfg.Down != nil || l.cfg.Jitter != nil || r.ser.Len() > 0 {
		l.enqueue(&r.ser, txDone, pkt, linkTxDone)
		return
	}
	arrival := txDone
	if l.cfg.Delay != nil {
		arrival = arrival.Add(l.cfg.Delay(txDone))
	}
	clamp := l.lastArrival
	if r.held.Len() > 0 {
		clamp = p.prop.Back().at
	}
	l.net.sched.ReserveSeq() // the end of serialization's; enqueue takes the next
	l.enqueue(&p.prop, max(arrival, clamp), pkt, linkDeliver)
	r.held.Push(txDone)
}

// settle does for the held packets whose serialization-end key has passed
// what that event would have done: their bytes leave the queue and their
// arrival becomes the link's clamp.
func (l *Link) settle() {
	p := l.pipe
	if p == nil || p.rated == nil {
		return
	}
	for held := &p.rated.held; held.Len() > 0; held.Pop() {
		s := p.prop.At(p.prop.Len() - held.Len())
		if !l.net.sched.Passed(*held.Front(), s.seq-1) {
			return
		}
		l.queuedBytes -= s.pkt.Size
		l.lastArrival = s.at
	}
}

// unhold moves the held packets still serializing back to the
// serialization ring, under the keys they reserved at admit for the end of
// their serialization, which then fires and arms the arrival: the change a
// mutator is making may give the end of their serialization something to
// decide, or (SetRate(0)) let later packets overtake them, which an arrival
// fixed at admit would forbid. Nothing serializes in two-event form while
// any packet is held, so the ring is empty.
func (l *Link) unhold() {
	l.settle()
	p := l.pipe
	if p == nil || p.rated == nil || p.rated.held.Len() == 0 {
		return
	}
	r := p.rated
	first := p.prop.Len() - r.held.Len()
	for i := first; i < p.prop.Len(); i++ {
		s := p.prop.At(i)
		r.ser.Push(pipeSlot{at: r.held.Pop(), seq: s.seq - 1, pkt: s.pkt})
	}
	for p.prop.Len() > first {
		p.prop.PopBack()
	}
	if first == 0 {
		p.prop.timer.Stop()
	}
	head := r.ser.Front()
	r.ser.timer = l.net.sched.AtFuncSeq(head.at, head.seq, linkTxDone, l)
}

// linkTxDone and linkDeliver are the package-level EventFunc trampolines
// of the two hops; being plain functions taking the link itself, arming
// them boxes and allocates nothing.
func linkTxDone(arg any) {
	l := arg.(*Link)
	pkt := l.dequeue(&l.pipe.rated.ser, linkTxDone)
	l.queuedBytes -= pkt.Size // admitted at a rate, whatever SetRate did since
	if arrival, ok := l.transmit(pkt); ok {
		l.enqueue(&l.pipe.prop, arrival, pkt, linkDeliver)
	}
}

func linkDeliver(arg any) {
	l := arg.(*Link)
	if p := l.pipe; p.rated != nil && p.rated.held.Len() == p.prop.Len() {
		l.settle() // the head is held, its serialization over
	}
	l.deliver(l.dequeue(&l.pipe.prop, linkDeliver))
}
