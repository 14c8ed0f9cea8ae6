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
// would produce. The scheduler orders purely by (at, seq); enqueue takes
// the packet's seq with ReserveSeq at the very instant its own timer would
// have taken it, so every packet keeps its key. The ring is in key order
// because it is filled in key order (push refuses anything else), and its
// head is armed under its key, so the scheduler's queue always
// holds the minimum pending key of every link, which is all it needs to
// pick the global minimum. What changes is the queue's size:
// O(links + connection timers) rather than O(packets in flight).

// pipeSlot is one in-flight packet and the key its event fires under.
type pipeSlot struct {
	at  sim.Time
	seq uint64
	pkt *Packet
}

// hop is one hop's in-flight packets in (at, seq) order. While any is
// queued, one timer is armed under the head's key.
type hop struct {
	sim.Ring[pipeSlot]
}

// linkPipe is the in-flight state of one link: packets waiting for the end
// of their serialization, and packets propagating to the far node.
type linkPipe struct {
	ser, prop hop
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
		s.AtFuncSeq(at, seq, fn, l)
	}
}

// dequeue pops the packet whose event is firing and re-arms the hop's
// timer under the next head's reserved key, which is never below the one
// being fired.
func (l *Link) dequeue(h *hop, fn sim.EventFunc) *Packet {
	pkt := h.Pop().pkt
	if h.Len() > 0 {
		next := h.Front()
		l.net.sched.AtFuncSeq(next.at, next.seq, fn, l)
	}
	return pkt
}

// linkTxDone and linkDeliver are the package-level EventFunc trampolines
// of the two hops; being plain functions taking the link itself, arming
// them boxes and allocates nothing.
func linkTxDone(arg any) {
	l := arg.(*Link)
	pkt := l.dequeue(&l.pipe.ser, linkTxDone)
	l.leaveQueue(pkt)
	if arrival, ok := l.transmit(pkt); ok {
		l.enqueue(&l.pipe.prop, arrival, pkt, linkDeliver)
	}
}

func linkDeliver(arg any) {
	l := arg.(*Link)
	l.deliver(l.dequeue(&l.pipe.prop, linkDeliver))
}
