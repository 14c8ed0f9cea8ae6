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

// pktRing is a growable FIFO of slots in (at, seq) order. len(buf) is a
// power of two (or zero before the first push).
type pktRing struct {
	buf   []pipeSlot
	head  int
	n     int
	timer sim.TimerHandle // armed under buf[head]'s key while n > 0
}

// linkPipe is the in-flight state of one link: packets waiting for the end
// of their serialization, and packets propagating to the far node.
type linkPipe struct {
	ser, prop pktRing
}

func (l *Link) pipes() *linkPipe {
	if l.pipe == nil {
		l.pipe = new(linkPipe)
	}
	return l.pipe
}

// push appends s, whose seq is newer than every seq in the ring, and
// reports whether s.at kept the ring in order; an instant earlier than the
// tail's is refused and leaves the ring untouched.
func (r *pktRing) push(s pipeSlot) bool {
	if r.n > 0 && s.at < r.buf[(r.head+r.n-1)&(len(r.buf)-1)].at {
		return false
	}
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = s
	r.n++
	return true
}

// pop removes the head and returns its packet.
func (r *pktRing) pop() *Packet {
	slot := &r.buf[r.head]
	pkt := slot.pkt
	slot.pkt = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return pkt
}

// grow doubles a full ring (4 slots at first: most links of a fleet carry
// one probe at a time), unwrapping it to start at index 0.
func (r *pktRing) grow() {
	buf := make([]pipeSlot, max(4, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// enqueue puts pkt in flight on one hop, due at the given instant. It
// reserves the event's sequence number here and arms the hop's timer only
// when the ring was empty. Both hops hand out non-decreasing instants
// (busyUntil, the lastArrival clamp); one that did not would fire its
// packets out of key order, so it stops the run here.
func (l *Link) enqueue(r *pktRing, at sim.Time, pkt *Packet, fn sim.EventFunc) {
	s := l.net.sched
	seq := s.ReserveSeq()
	if !r.push(pipeSlot{at: at, seq: seq, pkt: pkt}) {
		panic(fmt.Sprintf("netem: link %s: packet due at t=%d, before one already in flight on the same hop", l.name, int64(at)))
	}
	if r.n == 1 {
		r.timer = s.AtFuncSeq(at, seq, fn, l)
	}
}

// dequeue pops the packet whose event is firing and re-arms the hop's
// timer under the next head's reserved key, which is never below the one
// being fired.
func (l *Link) dequeue(r *pktRing, fn sim.EventFunc) *Packet {
	pkt := r.pop()
	if r.n > 0 {
		next := &r.buf[r.head]
		r.timer = l.net.sched.AtFuncSeq(next.at, next.seq, fn, l)
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
