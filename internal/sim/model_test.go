package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// This file is the scheduler's oracle: the obvious implementation of the
// same contract — container/heap over (at, seq), a fresh node per event,
// nothing recycled, nothing fired in place, no compaction — and a random
// program that drives it and the real Scheduler through the same
// operations. The model started life as the seed event queue; the 4-ary
// heap, the timer freelist, the hollow root and lazy compaction all have
// to be invisible next to it.

type modelTimer struct {
	at      Time
	seq     uint64
	fn      Event
	efn     EventFunc
	arg     any
	index   int // position in the heap, -1 once popped
	stopped bool
}

type modelHeap []*modelTimer

func (q modelHeap) Len() int { return len(q) }
func (q modelHeap) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq // FIFO among equal timestamps
}
func (q modelHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *modelHeap) Push(x any) {
	t := x.(*modelTimer)
	t.index = len(*q)
	*q = append(*q, t)
}
func (q *modelHeap) Pop() any {
	old := *q
	t := old[len(old)-1]
	t.index = -1
	*q = old[:len(old)-1]
	return t
}

// modelScheduler implements the part of Scheduler's API the differential
// program uses. Misuse (scheduling in the past, unreserved keys) is the
// real scheduler's business and is tested on it alone.
type modelScheduler struct {
	now    Time
	seq    uint64
	q      modelHeap
	events uint64
}

// modelHandle is the model's TimerHandle; its zero value is inert.
type modelHandle struct{ t *modelTimer }

func (h modelHandle) live() bool    { return h.t != nil && h.t.index >= 0 && !h.t.stopped }
func (h modelHandle) Pending() bool { return h.live() }
func (h modelHandle) Stop() bool {
	if !h.live() {
		return false
	}
	h.t.stopped = true
	return true
}

func (m *modelScheduler) Now() Time { return m.now }

func (m *modelScheduler) ReserveSeq() uint64 {
	m.seq++
	return m.seq - 1
}

func (m *modelScheduler) push(at Time, seq uint64, fn Event, efn EventFunc, arg any) handle {
	t := &modelTimer{at: at, seq: seq, fn: fn, efn: efn, arg: arg}
	heap.Push(&m.q, t)
	return modelHandle{t}
}

func (m *modelScheduler) At(at Time, fn Event) handle {
	return m.push(at, m.ReserveSeq(), fn, nil, nil)
}

func (m *modelScheduler) AtFunc(at Time, fn EventFunc, arg any) handle {
	return m.push(at, m.ReserveSeq(), nil, fn, arg)
}

func (m *modelScheduler) AtFuncSeq(at Time, seq uint64, fn EventFunc, arg any) handle {
	return m.push(at, seq, nil, fn, arg)
}

// head drops stopped timers off the top and returns the earliest live one.
func (m *modelScheduler) head() *modelTimer {
	for len(m.q) > 0 {
		if t := m.q[0]; !t.stopped {
			return t
		}
		heap.Pop(&m.q)
	}
	return nil
}

func (m *modelScheduler) step(limit Time) bool {
	t := m.head()
	if t == nil || t.at > limit {
		return false
	}
	heap.Pop(&m.q)
	m.now = t.at
	m.events++
	if t.efn != nil {
		t.efn(t.arg)
	} else {
		t.fn()
	}
	return true
}

func (m *modelScheduler) Step() bool { return m.step(MaxTime) }

func (m *modelScheduler) Run() {
	for m.step(MaxTime) {
	}
}

func (m *modelScheduler) RunUntil(deadline Time) {
	for m.step(deadline) {
	}
	if m.now < deadline {
		m.now = deadline
	}
}

func (m *modelScheduler) Pending() int {
	n := 0
	for _, t := range m.q {
		if !t.stopped {
			n++
		}
	}
	return n
}

func (m *modelScheduler) processed() uint64  { return m.events }
func (m *modelScheduler) zeroHandle() handle { return modelHandle{} }

// handle and queue are what the differential program needs of either
// implementation.
type handle interface {
	Stop() bool
	Pending() bool
}

type queue interface {
	Now() Time
	At(at Time, fn Event) handle
	AtFunc(at Time, fn EventFunc, arg any) handle
	ReserveSeq() uint64
	AtFuncSeq(at Time, seq uint64, fn EventFunc, arg any) handle
	Step() bool
	Run()
	RunUntil(deadline Time)
	Pending() int
	processed() uint64
	zeroHandle() handle
}

// realQueue adapts *Scheduler: its scheduling calls return the concrete
// TimerHandle.
type realQueue struct{ *Scheduler }

func (r realQueue) At(at Time, fn Event) handle { return r.Scheduler.At(at, fn) }
func (r realQueue) AtFunc(at Time, fn EventFunc, arg any) handle {
	return r.Scheduler.AtFunc(at, fn, arg)
}
func (r realQueue) AtFuncSeq(at Time, seq uint64, fn EventFunc, arg any) handle {
	return r.Scheduler.AtFuncSeq(at, seq, fn, arg)
}
func (r realQueue) processed() uint64  { return r.Processed }
func (r realQueue) zeroHandle() handle { return TimerHandle{} }

// pipeEntry is one element of the program's FIFO of reserved keys, the
// netem link-pipe pattern: a key is reserved per entry when it is pushed,
// one timer is armed for the head only, and the head's callback arms the
// next — from inside the firing event, where the real scheduler reuses the
// hollow root.
type pipeEntry struct {
	at  Time
	seq uint64
	id  int
}

// Codes recorded in the trace beside fire records (now, id >= 0).
const (
	recStop = -1 - iota
	recPending
	recStep
	recHandle
)

// randomWorkload drives q through a deterministic mix of scheduling,
// nested scheduling, stops of live, stale, fired and zero handles, a FIFO
// of reserved keys, mass arm-and-stop rounds big enough to compact the
// real queue down to nothing, single steps and RunUntil windows. The
// trace holds every observable: each fire as (now, id), the result of
// every Stop, and Pending and handle states at
// checkpoints. Callbacks draw from the same rand stream, so the two
// implementations stay in step exactly as long as they fire in the same
// order.
func randomWorkload(q queue, seed int64) (trace []int64) {
	r := rand.New(rand.NewSource(seed))
	id := 0
	handles := []handle{q.zeroHandle()}
	rec := func(vs ...int64) { trace = append(trace, vs...) }
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	stopRandom := func() {
		i := r.Intn(len(handles))
		rec(recStop, int64(i), b(handles[i].Stop()))
	}

	var pipe []pipeEntry
	var pipeFire EventFunc
	armPipe := func() { q.AtFuncSeq(pipe[0].at, pipe[0].seq, pipeFire, nil) }
	pipeAppend := func() {
		at := q.Now() + Time(r.Intn(4))*Time(Millisecond)
		if n := len(pipe); n > 0 && pipe[n-1].at > at {
			at = pipe[n-1].at // a FIFO: never due before its predecessor
		}
		pipe = append(pipe, pipeEntry{at: at, seq: q.ReserveSeq(), id: id})
		id++
	}
	pipePush := func() {
		pipeAppend()
		if len(pipe) == 1 {
			armPipe()
		}
	}
	pipeFire = func(any) {
		rec(int64(q.Now()), int64(pipe[0].id))
		pipe = pipe[1:]
		if r.Intn(3) == 0 {
			pipeAppend()
		}
		if len(pipe) > 0 {
			armPipe()
		}
	}

	var schedule func(depth int, at Time)
	schedule = func(depth int, at Time) {
		myID := id
		id++
		handles = append(handles, q.At(at, func() {
			rec(int64(q.Now()), int64(myID))
			if depth < 3 && r.Intn(3) == 0 {
				schedule(depth+1, q.Now()+Time(r.Intn(5))*Time(Millisecond))
			}
			if r.Intn(4) == 0 {
				stopRandom()
			}
			if r.Intn(6) == 0 {
				pipePush()
			}
			if r.Intn(8) == 0 {
				rec(recPending, int64(q.Pending()))
			}
		}))
	}
	// massStop arms n timers and stops them all (bar the survivors): with
	// little else queued, the real scheduler compacts an all-stopped heap.
	massStop := func(n, survivors int) {
		var hs []handle
		for i := 0; i < n; i++ {
			myID := id
			id++
			hs = append(hs, q.AtFunc(q.Now()+Time(1+i%7)*Time(Second), func(any) { rec(int64(q.Now()), int64(myID)) }, nil))
		}
		for _, h := range hs[survivors:] {
			rec(recStop, -1, b(h.Stop()))
		}
		handles = append(handles, hs[0], hs[n-1])
		rec(recPending, int64(q.Pending()))
	}
	checkpoint := func() {
		rec(recPending, int64(q.Pending()))
		for i := 0; i < len(handles); i += 7 {
			rec(recHandle, int64(i), b(handles[i].Pending()))
		}
	}

	for i := 0; i < 300; i++ {
		schedule(0, Time(r.Intn(100))*Time(Millisecond))
	}
	for i := 0; i < len(handles); i += 5 {
		rec(recStop, int64(i), b(handles[i].Stop()))
	}
	pipePush()
	checkpoint()
	q.RunUntil(Time(40 * Millisecond))
	checkpoint()
	for i := 0; i < 25; i++ {
		rec(recStep, b(q.Step()))
		if i%5 == 0 {
			stopRandom()
		}
	}
	massStop(3*compactMin, 1)
	q.RunUntil(Time(80 * Millisecond))
	checkpoint()
	q.Run()
	checkpoint()
	// An empty queue, then nothing but dead timers in it.
	massStop(compactMin+1, 0)
	checkpoint()
	schedule(0, q.Now()+Time(Hour))
	q.Run()
	checkpoint()
	return append(trace, int64(q.processed()), int64(q.Now()))
}

// The scheduler and the model must be observationally identical: same
// firing order at the same instants, same Stop results on live, stopped,
// fired, stale and zero handles, same Pending wherever
// the program looks, same Processed and final clock.
func TestFastMatchesReferenceScheduler(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 20260808} {
		s := NewScheduler(uint64(seed))
		got := randomWorkload(realQueue{s}, seed)
		want := randomWorkload(&modelScheduler{}, seed)
		checkHeap(t, s)
		if len(got) != len(want) {
			t.Errorf("seed %d: trace lengths differ: %d vs model's %d", seed, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: trace diverges from the model at %d: %d vs %d (previous entries %v)",
					seed, i, got[i], want[i], want[max(0, i-6):i])
			}
		}
		if s.Processed < 300 {
			t.Fatalf("seed %d: only %d events ran; the program is not exercising the queue", seed, s.Processed)
		}
	}
}

// The churn that dominates scheduler traffic in the transfer campaigns —
// stop the retransmit timer, re-arm it, schedule the next event — must not
// allocate once the timer freelist is warm: pooled nodes, package-level
// EventFuncs, the root fired in place.
func TestAllocGateSchedulerChurn(t *testing.T) {
	s := NewScheduler(1)
	c := &churnConn{s: s, period: Duration(time.Millisecond)}
	const events = 1000
	round := func() {
		c.left = events
		s.AfterFunc(c.period, churnFire, c)
		s.Run()
	}
	round() // warm the freelist
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Errorf("%v allocs per %d-event churn round, want 0", avg, events)
	}
}

// TestAllocGateTimerSlab holds the cold side: a scheduler that must carry
// many timers at once makes their nodes a chunk at a time, not one by one —
// 5 000 pending timers are under 150 objects (sixteen single nodes,
// chunks growing from slabUnit to slabMax, plus the heap's own growth). Every timer still fires
// once, and a handle's Stop reaches only its own node.
func countFire(arg any) { *arg.(*int)++ }

func TestAllocGateTimerSlab(t *testing.T) {
	const timers = 5000
	var s *Scheduler
	var handles []TimerHandle
	fired := 0
	fill := func(n int) {
		s = NewScheduler(1)
		handles = handles[:0]
		for i := 0; i < n; i++ {
			handles = append(handles, s.AfterFunc(Duration(n-i)*time.Microsecond, countFire, &fired))
		}
	}
	fill(timers) // size handles
	if avg := testing.AllocsPerRun(5, func() { fill(timers) }); avg > 150 {
		t.Errorf("%v objects to hold %d pending timers, want under 150", avg, timers)
	}
	for i := 0; i < timers; i += 2 {
		if !handles[i].Stop() {
			t.Fatalf("timer %d: Stop on a pending timer returned false", i)
		}
	}
	fired = 0
	s.Run()
	if fired != timers/2 {
		t.Errorf("%d timers fired, want %d", fired, timers/2)
	}

}
