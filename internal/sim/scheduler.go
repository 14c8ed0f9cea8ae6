package sim

import (
	"fmt"
	"time"
)

// Event is a callback executed at a scheduled virtual time.
type Event func()

// EventFunc is the allocation-free event form: a package-level function
// receiving its state through arg. Because arg holds a pointer the call
// site already owns, scheduling with AtFunc/AfterFunc performs no
// closure allocation — the hot packet path (netem link transmit/arrival,
// TCP retransmit and delayed-ack timers, QUIC loss/PTO/pacing timers)
// schedules this way.
type EventFunc func(arg any)

// Timer is a pooled event-queue node. Nodes are owned by the Scheduler:
// once fired, or dropped stopped off the top of the queue, they return to
// a freelist and are reused by later At/After calls, so steady-state
// scheduling allocates nothing. External code never holds a *Timer; it
// holds a TimerHandle, which carries the generation the node had when it
// was issued.
type Timer struct {
	at      Time
	seq     uint64
	fn      Event
	efn     EventFunc
	arg     any
	index   int32 // position in the heap, -1 when not queued
	gen     uint32
	stopped bool
}

// TimerHandle is the caller's reference to a scheduled event. The zero
// value is inert: Stop and Pending on it are safe no-ops. A handle
// outlives its timer harmlessly — the generation counter on the pooled
// node means a stale handle can never stop a recycled timer that now
// belongs to someone else.
type TimerHandle struct {
	t   *Timer
	gen uint32
}

// queued reports whether the handle's node is still in the heap for it,
// stopped or not.
func (h TimerHandle) queued() bool {
	return h.t != nil && h.t.gen == h.gen && h.t.index >= 0
}

// Stop cancels the timer. It reports whether the timer was still pending
// (i.e. the call prevented the event from running). The node stays queued
// until it surfaces at the top of the queue or Rearm revives it.
func (h TimerHandle) Stop() bool {
	if !h.queued() || h.t.stopped {
		return false
	}
	h.t.stopped = true
	return true
}

// Pending reports whether the timer is still queued and not stopped.
func (h TimerHandle) Pending() bool {
	return h.queued() && !h.t.stopped
}

// Scheduler owns the virtual clock and the pending-event queue.
// It is not safe for concurrent use: the simulation is single-threaded by
// design, which is what makes it deterministic.
//
// The queue is a typed 4-ary min-heap ordered by (at, seq) — FIFO among
// equal timestamps — with no interface boxing. Fired and stopped
// timers are recycled through a freelist, so the steady-state event loop
// allocates nothing. The package's tests hold it, operation by operation,
// to a container/heap model of the same contract (model_test.go).
type Scheduler struct {
	now  Time
	seq  uint64
	heap []*Timer
	free Freelist[Timer] // recycled nodes
	// slab is the unissued rest of the newest chunk of nodes, made is how
	// many nodes all chunks so far hold (see alloc).
	slab []Timer
	made int
	rng  *RNG
	// hollow marks heap[0] as the node of the event being fired: dead to
	// its handles but still in place, waiting for the first event its
	// callback schedules to take the slot over (see step).
	hollow bool
	// firing is the sequence number of the event being (or last) fired at
	// now; an explicit-seq event at the same instant must not sort before it.
	firing uint64
	// passed bounds the keys at now that have passed (see Passed): those
	// with a smaller seq.
	passed uint64
	// queuePeak is the high-water mark of the queue length: engine
	// telemetry, never part of the deterministic exports.
	queuePeak int
	// Processed counts events executed since construction; useful for
	// progress accounting and runaway detection in tests.
	Processed uint64
	// Skipped counts events a scenario-level analytic fast-forward
	// advanced in closed form instead of scheduling (see CreditSkipped).
	// Purely informational: Processed + Skipped is the work a full
	// emulation of the same scenario would have executed.
	Skipped uint64
}

// heapArity is the fan-out of the scheduler heap. 4 children per node
// halves the tree depth of a binary heap and keeps each sibling group in
// one or two cache lines, which is where sift-down spends its time.
const heapArity = 4

// NewScheduler returns a scheduler with its clock at zero and all RNG
// streams derived from seed.
func NewScheduler(seed uint64) *Scheduler {
	return &Scheduler{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// RNG returns the root RNG from which named deterministic streams are
// derived.
func (s *Scheduler) RNG() *RNG { return s.rng }

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past (before Now) panics: it is always a logic error and silently
// reordering events would destroy causality.
func (s *Scheduler) At(at Time, fn Event) TimerHandle {
	if fn == nil {
		panic("sim: nil event")
	}
	return s.schedule(at, fn, nil, nil)
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d Duration, fn Event) TimerHandle {
	return s.At(s.now.Add(d), fn)
}

// AtFunc schedules fn(arg) at the absolute virtual time at without
// allocating: fn is a package-level function and arg a pointer the
// caller already holds.
func (s *Scheduler) AtFunc(at Time, fn EventFunc, arg any) TimerHandle {
	if fn == nil {
		panic("sim: nil event")
	}
	return s.schedule(at, nil, fn, arg)
}

// AfterFunc schedules fn(arg) to run d after the current virtual time.
func (s *Scheduler) AfterFunc(d Duration, fn EventFunc, arg any) TimerHandle {
	return s.AtFunc(s.now.Add(d), fn, arg)
}

// Rearm moves a timer to a new deadline: h.Stop() followed by
// AtFunc(at, fn, arg), the re-arm of a per-connection retransmit,
// delayed-ACK or pacing timer. While h's node is still queued, pending or
// stopped, it takes the new key in place with one sift instead of leaving
// a dead node behind; otherwise the event is scheduled afresh. Either way
// it takes the sequence number AtFunc would have, and h is dead afterwards.
func (s *Scheduler) Rearm(h TimerHandle, at Time, fn EventFunc, arg any) TimerHandle {
	if !h.queued() || fn == nil || at < s.now {
		return s.AtFunc(at, fn, arg) // afresh, or its panic on misuse
	}
	t := h.t
	t.at, t.seq, t.fn, t.efn, t.arg = at, s.ReserveSeq(), nil, fn, arg
	t.stopped = false
	t.gen++
	if i := int(t.index); i > 0 && timerLess(t, s.heap[(i-1)/heapArity]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
	return TimerHandle{t: t, gen: t.gen}
}

// ReserveSeq hands out the sequence number a timer scheduled at this
// instant would take, without queueing anything. A FIFO of events (a netem
// link's in-flight packets) reserves one key per entry as it is pushed and
// arms a single timer, for its head only, with AtFuncSeq: every entry still
// fires at exactly the (at, seq) position its own timer would have had.
func (s *Scheduler) ReserveSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// Passed reports whether an event armed under the key (at, seq) would have
// fired by now, whether or not one was: at is before the clock, or at the
// clock and the key sorts no later than the event being fired. A run that
// has returned has passed every key it was allowed to fire: after
// RunUntil(deadline) the keys at the deadline reserved so far, after
// RunBefore(horizon) none at the horizon. The owner of a key reserved but
// never armed (the end of serialization of a netem packet that takes its
// link in one event) so learns that its instant is behind it without an
// event. (A run cut short by Stop still moves the clock to its end; the
// keys it skipped read as passed.)
func (s *Scheduler) Passed(at Time, seq uint64) bool {
	return at < s.now || at == s.now && seq < s.passed
}

// AtFuncSeq is AtFunc under a sequence number reserved earlier with
// ReserveSeq. Besides the past it refuses the two ways a supplied key could
// reorder events: a seq ReserveSeq never handed out, and a key at the
// current instant that sorts before the event being fired.
func (s *Scheduler) AtFuncSeq(at Time, seq uint64, fn EventFunc, arg any) TimerHandle {
	if fn == nil {
		panic("sim: nil event")
	}
	if seq >= s.seq {
		panic(fmt.Sprintf("sim: sequence number %d was never reserved (next is %d)", seq, s.seq))
	}
	if at == s.now && seq < s.firing {
		panic(fmt.Sprintf("sim: event (%v, seq %d) sorts before the event being fired (seq %d)", at, seq, s.firing))
	}
	return s.enqueue(at, seq, nil, fn, arg)
}

func (s *Scheduler) schedule(at Time, fn Event, efn EventFunc, arg any) TimerHandle {
	return s.enqueue(at, s.ReserveSeq(), fn, efn, arg)
}

func (s *Scheduler) enqueue(at Time, seq uint64, fn Event, efn EventFunc, arg any) TimerHandle {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	var t *Timer
	if s.hollow {
		// Take over the root the firing event left: one sift-down instead
		// of its pop's sift-down plus this push's sift-up.
		s.hollow = false
		t = s.heap[0]
		t.at, t.seq, t.fn, t.efn, t.arg = at, seq, fn, efn, arg
		s.siftDown(0)
	} else {
		t = s.alloc()
		t.at, t.seq, t.fn, t.efn, t.arg = at, seq, fn, efn, arg
		s.heapPush(t)
		s.queuePeak = max(s.queuePeak, len(s.heap))
	}
	return TimerHandle{t: t, gen: t.gen}
}

// Duration is the standard library duration, aliased so the scheduler's
// signatures read in the package's own terms.
type Duration = time.Duration

// Nodes are made a chunk at a time once a scheduler has shown it needs more
// than a handful. The first slabFirst are made singly, as all once were;
// after that a chunk is slabUnit·2^k nodes, at most a sixteenth of the
// nodes made before it and at most slabMax, so a scheduler never holds more
// than a sixteenth more nodes than it has used. A node is 64 bytes, a size
// class of its own, so a chunk saves objects, not bytes: 7 nodes are the
// 448-byte class, and 7·2^k nodes plus the 8-byte header of a pointerful
// object above 512 bytes take the 512·2^k class, about 12 % over their
// size. A packet testbed's few dozen to few hundred timers so cost a few
// kilobytes at most over one by one, while a scenario with a timer per
// terminal makes a chunk per 224 of them instead of 50 000 objects.
const (
	slabFirst = 16
	slabUnit  = 7
	slabMax   = 224
)

// alloc takes a node from the freelist, or carves one off the slab.
func (s *Scheduler) alloc() *Timer {
	if t := s.free.Get(); t != nil {
		return t
	}
	if len(s.slab) == 0 {
		n := 1
		if s.made >= slabFirst {
			for n = slabUnit; n < slabMax && 32*n <= s.made; n *= 2 {
			}
		}
		s.slab = make([]Timer, n)
		s.made += n
	}
	t := &s.slab[0]
	s.slab = s.slab[1:]
	t.index = -1
	return t
}

// recycle returns a node to the freelist. Bumping the generation
// invalidates every handle issued for the node's previous life.
func (s *Scheduler) recycle(t *Timer) {
	t.gen++
	t.fn, t.efn, t.arg = nil, nil, nil
	t.index = -1
	t.stopped = false
	s.free.Put(t)
}

// peek returns the earliest pending, non-stopped timer without removing
// it, discarding (and recycling) stopped timers it passes over. It never
// perturbs the firing order of live events.
func (s *Scheduler) peek() *Timer {
	if s.hollow {
		s.settle()
	}
	for len(s.heap) > 0 {
		t := s.heap[0]
		if !t.stopped {
			return t
		}
		s.heapPopMin()
		s.recycle(t)
	}
	return nil
}

// settle pops a hollow root nothing took over.
func (s *Scheduler) settle() {
	s.hollow = false
	s.recycle(s.heapPopMin())
}

// step fires the earliest live event if it is due at or before limit,
// advancing the clock to its timestamp, and reports whether one ran.
//
// The root is fired in place: its generation is bumped, so every handle to
// it is dead before the callback runs, but the node stays at heap[0] — it
// still carries the smallest key, so the heap stays valid — until the
// first event the callback schedules overwrites it (the retransmit and
// link-pipe pattern: an event's first act is to re-arm itself), or, if
// none does, until settle pops it. The queue holds the same keys either
// way, so the firing order is that of a pop before every callback.
func (s *Scheduler) step(limit Time) bool {
	t := s.peek()
	if t == nil || t.at > limit {
		return false
	}
	s.now, s.firing, s.passed = t.at, t.seq, t.seq+1
	s.Processed++
	fn, efn, arg := t.fn, t.efn, t.arg
	t.gen++
	s.hollow = true
	if efn != nil {
		efn(arg)
	} else {
		fn()
	}
	if s.hollow {
		s.settle()
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() { s.runTo(MaxTime, s.now) }

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to exactly deadline (even if no event fired there), so periodic
// samplers observe a full window.
func (s *Scheduler) RunUntil(deadline Time) { s.runTo(deadline, deadline) }

// RunFor executes events for d of virtual time from now.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// RunBefore executes events with timestamps strictly before horizon, then
// advances the clock to exactly horizon. The half-open window is what a
// barrier loop needs (fleet.Traffic.Run): events at the horizon itself
// belong to the next window, after whatever the caller does at the barrier.
func (s *Scheduler) RunBefore(horizon Time) { s.runTo(horizon-1, horizon) }

// runTo fires every event due at or before limit, then advances the clock
// to end if it is not there yet.
func (s *Scheduler) runTo(limit, end Time) {
	for s.step(limit) {
	}
	if s.now < end {
		// Nothing has fired at the new instant yet, so no key there can
		// sort before a fired one.
		s.now, s.firing, s.passed = end, 0, 0
	}
	if s.now <= limit {
		// Every key at the clock reserved so far was the run's to fire.
		s.passed = s.seq
	}
}

// QueuePeak returns the high-water mark of the event queue's length,
// stopped timers included. Engine telemetry — it depends on how callers
// batch their timers, not on what the simulation computes — so it stays
// out of the deterministic metric exports.
func (s *Scheduler) QueuePeak() int { return s.queuePeak }

// CreditSkipped records that a scenario-level fast-forward advanced n
// would-have-been events in closed form instead of scheduling them. The
// scheduler takes no action — the caller already applied the events'
// net effect — it only keeps the ledger so engine introspection
// (Processed vs Skipped, fleet.Traffic.EventsSkipped) can report how much
// emulation the closed forms displaced.
func (s *Scheduler) CreditSkipped(n uint64) { s.Skipped += n }

// --- typed 4-ary min-heap ----------------------------------------------

// timerLess orders by (at, seq): earliest first, FIFO among equal
// timestamps. seq never repeats within a scheduler, so the order is
// total and firing is fully deterministic.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) heapPush(t *Timer) {
	t.index = int32(len(s.heap))
	s.heap = append(s.heap, t)
	s.siftUp(int(t.index))
}

func (s *Scheduler) heapPopMin() *Timer {
	h := s.heap
	t := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.heap = h[:n]
	if n > 0 {
		s.heap[0] = last
		last.index = 0
		s.siftDown(0)
	}
	t.index = -1
	return t
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	t := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !timerLess(t, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = t
	t.index = int32(i)
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	t := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if timerLess(h[c], h[best]) {
				best = c
			}
		}
		if !timerLess(h[best], t) {
			break
		}
		h[i] = h[best]
		h[i].index = int32(i)
		i = best
	}
	h[i] = t
	t.index = int32(i)
}
