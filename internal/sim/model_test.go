package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// This file is the scheduler's oracle: the obvious implementation of the
// same contract — container/heap over (at, seq), a fresh node per event,
// nothing recycled, nothing fired or re-armed in place — and a random
// program that drives it and the real Scheduler through the same
// operations. The model started life as the seed event queue; the 4-ary
// heap, the timer freelist, the hollow root and re-arming in place all have
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

// Rearm is the contract itself: stop the old event, schedule a new one.
func (m *modelScheduler) Rearm(h handle, at Time, fn EventFunc, arg any) handle {
	h.Stop()
	return m.AtFunc(at, fn, arg)
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

func (m *modelScheduler) stepOne() bool { return m.step(MaxTime) }

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

func (m *modelScheduler) pending() int {
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
	Rearm(h handle, at Time, fn EventFunc, arg any) handle
	stepOne() bool
	Run()
	RunUntil(deadline Time)
	pending() int
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
func (r realQueue) Rearm(h handle, at Time, fn EventFunc, arg any) handle {
	return r.Scheduler.Rearm(h.(TimerHandle), at, fn, arg)
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
	recRearm
)

// randomWorkload drives q through a deterministic mix of scheduling,
// nested scheduling, stops and re-arms of live, stopped, stale, fired and
// zero handles, a FIFO of reserved keys, mass arm-and-stop rounds that
// leave the queue full of dead nodes, re-arms of those, a timer re-armed
// and stopped over and over, single steps and RunUntil windows. The trace
// holds every observable: each fire as (now, id), the result of every
// Stop, the state of the old and new handle after every Rearm, and the live
// count and handle states at checkpoints. Callbacks draw from the same rand
// stream, so the two implementations stay in step exactly as long as they
// fire in the same order.
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
		at := q.Now() + Time(r.Intn(4))*Time(time.Millisecond)
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

	// rearm moves handles[i] to a random instant up to 5 ms out and keeps
	// both handles: the old one must be dead, the new one pending.
	rearm := func(i int) {
		myID := id
		id++
		at := q.Now() + Time(r.Intn(6))*Time(time.Millisecond)
		h := q.Rearm(handles[i], at, func(any) { rec(int64(q.Now()), int64(myID)) }, nil)
		rec(recRearm, int64(i), b(handles[i].Pending()), b(h.Pending()))
		handles = append(handles, h)
	}
	rearmRandom := func() { rearm(r.Intn(len(handles))) }

	var schedule func(depth int, at Time)
	schedule = func(depth int, at Time) {
		myID := id
		id++
		handles = append(handles, q.At(at, func() {
			rec(int64(q.Now()), int64(myID))
			if depth < 3 && r.Intn(3) == 0 {
				schedule(depth+1, q.Now()+Time(r.Intn(5))*Time(time.Millisecond))
			}
			if r.Intn(4) == 0 {
				stopRandom()
			}
			if r.Intn(4) == 0 {
				rearmRandom()
			}
			if r.Intn(6) == 0 {
				pipePush()
			}
			if r.Intn(8) == 0 {
				rec(recPending, int64(q.pending()))
			}
		}))
	}
	// massStop arms n timers and stops them all (bar the survivors): with
	// little else queued, the real queue is all but dead nodes.
	massStop := func(n, survivors int) {
		var hs []handle
		for i := 0; i < n; i++ {
			myID := id
			id++
			hs = append(hs, q.AtFunc(q.Now()+Time(1+i%7)*Time(time.Second), func(any) { rec(int64(q.Now()), int64(myID)) }, nil))
		}
		for _, h := range hs[survivors:] {
			rec(recStop, -1, b(h.Stop()))
		}
		handles = append(handles, hs[0], hs[n-1])
		rec(recPending, int64(q.pending()))
		// Revive a few of the dead on their own nodes.
		for _, h := range hs[n-3:] {
			handles = append(handles, h)
			rearm(len(handles) - 1)
		}
		rec(recPending, int64(q.pending()))
	}
	// churn re-arms one timer n times, stopping it now and then: a
	// connection's retransmit timer.
	churn := func(n int) {
		handles = append(handles, q.zeroHandle())
		for k := 0; k < n; k++ {
			rearm(len(handles) - 1)
			if r.Intn(5) == 0 {
				rec(recStop, -1, b(handles[len(handles)-1].Stop()))
			}
		}
		rec(recPending, int64(q.pending()))
	}
	checkpoint := func() {
		rec(recPending, int64(q.pending()))
		for i := 0; i < len(handles); i += 7 {
			rec(recHandle, int64(i), b(handles[i].Pending()))
		}
	}

	for i := 0; i < 300; i++ {
		schedule(0, Time(r.Intn(100))*Time(time.Millisecond))
	}
	for i := 0; i < len(handles); i += 5 {
		rec(recStop, int64(i), b(handles[i].Stop()))
	}
	pipePush()
	checkpoint()
	q.RunUntil(Time(40 * time.Millisecond))
	checkpoint()
	for i := 0; i < 25; i++ {
		rec(recStep, b(q.stepOne()))
		if i%5 == 0 {
			stopRandom()
		}
		if i%3 == 0 {
			rearmRandom()
		}
	}
	churn(200)
	massStop(192, 1)
	q.RunUntil(Time(80 * time.Millisecond))
	checkpoint()
	q.Run()
	checkpoint()
	// An empty queue, then nothing but dead timers in it.
	massStop(65, 0)
	checkpoint()
	churn(50)
	checkpoint()
	schedule(0, q.Now()+Time(time.Hour))
	q.Run()
	checkpoint()
	return append(trace, int64(q.processed()), int64(q.Now()))
}

// The scheduler and the model must be observationally identical: same
// firing order at the same instants, same Stop and Rearm results on live,
// stopped, fired, stale and zero handles, same live count wherever the
// program looks, same Processed and final clock.
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

// Passed answers for a key whether an event armed under it would have fired
// by now, whether or not one was: the cases a reader of the clock and the
// firing event alone gets wrong.
func TestPassed(t *testing.T) {
	ms := func(n int) Time { return Time(n) * Time(time.Millisecond) }
	check := func(s *Scheduler, when string, at Time, seq uint64, want bool) {
		t.Helper()
		if got := s.Passed(at, seq); got != want {
			t.Errorf("%s: Passed(%v, %d) = %v, want %v", when, at, seq, got, want)
		}
	}

	s := NewScheduler(1)
	first := s.ReserveSeq()
	check(s, "before the first event", 0, first, false)
	check(s, "before the first event", ms(1), first, false)

	// Inside an event at 5 ms: keys at 5 ms reserved before it and sorting
	// before it have passed, its own has, later ones have not; any key at
	// an earlier instant has, any at a later one has not.
	before := s.ReserveSeq()
	s.At(ms(5), func() {
		firing := s.firing
		check(s, "inside an event, earlier instant", ms(4), s.ReserveSeq(), true)
		check(s, "inside an event, its own key", ms(5), firing, true)
		check(s, "inside an event, older key", ms(5), before, true)
		check(s, "inside an event, key reserved inside it", ms(5), s.ReserveSeq(), false)
		check(s, "inside an event, later instant", ms(6), before, false)
	})
	later := s.ReserveSeq() // sorts after the 5 ms event
	s.RunUntil(ms(5))
	// RunUntil has fired everything at its deadline: a key there reserved
	// before the run ended has passed even with a larger seq than the last
	// event fired; one reserved afterwards has not.
	check(s, "after RunUntil, key at the deadline", ms(5), later, true)
	check(s, "after RunUntil, key at the deadline reserved after it", ms(5), s.ReserveSeq(), false)
	s.RunUntil(ms(8)) // nothing fires: the clock advances to the deadline
	check(s, "after an empty RunUntil, key at the deadline", ms(8), later, true)
	check(s, "after an empty RunUntil, key past the deadline", ms(8)+1, first, false)

	// RunBefore stops short of its horizon: nothing there has passed, and
	// everything before it has.
	s.At(ms(9), func() {})
	at10 := s.ReserveSeq()
	s.At(ms(10), func() {})
	s.RunBefore(ms(10))
	check(s, "after RunBefore, key at the horizon", ms(10), at10, false)
	check(s, "after RunBefore, key at the horizon reserved early", ms(10), first, false)
	check(s, "after RunBefore, key before the horizon", ms(10)-1, s.ReserveSeq(), true)
	// A single step fires the 10 ms event: keys at 10 ms up to its own
	// have passed.
	s.stepOne()
	check(s, "after a step", ms(10), at10, true)
	check(s, "after a step, key reserved after the event", ms(10), s.ReserveSeq(), false)
}

// Passed on reserved keys against events armed under the same keys: at
// every point a random program looks — inside events, after RunUntil,
// RunBefore and single steps — a key has passed exactly when its probe has
// fired.
func TestPassedMatchesArmedProbes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		r := rand.New(rand.NewSource(seed))
		s := NewScheduler(uint64(seed))
		type probe struct {
			at    Time
			seq   uint64
			fired bool
		}
		var probes []*probe
		verify := func(where string) {
			for _, p := range probes {
				if got := s.Passed(p.at, p.seq); got != p.fired {
					t.Fatalf("seed %d %s at t=%v: Passed(%v, %d) = %v, probe fired = %v", seed, where, s.Now(), p.at, p.seq, got, p.fired)
				}
			}
		}
		var arm func()
		arm = func() {
			p := &probe{at: s.Now() + Time(r.Intn(4))*Time(time.Millisecond), seq: s.ReserveSeq()}
			probes = append(probes, p)
			s.AtFuncSeq(p.at, p.seq, func(any) {
				p.fired = true
				verify("inside a probe")
				if r.Intn(2) == 0 {
					arm()
				}
			}, nil)
		}
		for i := 0; i < 40; i++ {
			arm()
		}
		for i := 0; i < 60; i++ {
			switch r.Intn(4) {
			case 0:
				s.RunUntil(s.Now() + Time(r.Intn(3))*Time(time.Millisecond))
				verify("after RunUntil")
			case 1:
				s.RunBefore(s.Now() + Time(1+r.Intn(3))*Time(time.Millisecond))
				verify("after RunBefore")
			case 2:
				s.stepOne()
				verify("after a step")
			default:
				arm()
				verify("after arming")
			}
		}
	}
}
