package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// checkHeap validates the 4-ary heap invariant and the index bookkeeping.
func checkHeap(t *testing.T, s *Scheduler) {
	t.Helper()
	for i, tm := range s.heap {
		if int(tm.index) != i {
			t.Fatalf("heap[%d].index = %d", i, tm.index)
		}
		if i > 0 {
			p := (i - 1) / heapArity
			if timerLess(tm, s.heap[p]) {
				t.Fatalf("heap violation: heap[%d]=(%v,%d) < parent heap[%d]=(%v,%d)",
					i, tm.at, tm.seq, p, s.heap[p].at, s.heap[p].seq)
			}
		}
	}
}

// The regression test for unbounded Stop() retention: a long campaign
// re-arming and cancelling a million retransmit timers on one handle must
// keep both the queue and live count bounded — the sentinel plus the one
// node the handle re-arms in place, nothing left behind and nothing taken
// from the freelist.
func TestStoppedTimersCompacted(t *testing.T) {
	s := NewScheduler(1)
	sentinel := s.At(Time(2*time.Hour), func() {})
	const n = 1_000_000
	var h TimerHandle
	for i := 0; i < n; i++ {
		h = s.Rearm(h, s.Now().Add(time.Hour), churnNop, nil)
		if !h.Stop() {
			t.Fatal("Stop on a re-armed timer reported false")
		}
	}
	if got := len(s.heap); got != 2 {
		t.Errorf("queue length after %d re-arm/stop cycles = %d, want 2 (sentinel and the re-armed node)", n, got)
	}
	if got := s.pending(); got != 1 {
		t.Errorf("pending = %d, want 1 (the sentinel)", got)
	}
	if s.made != 2 {
		t.Errorf("%d nodes made, want 2", s.made)
	}
	if !sentinel.Pending() {
		t.Error("sentinel lost")
	}
	checkHeap(t, s)
}

// A stopped timer whose node is still queued is revived by Rearm on that
// node: the queue does not grow, the old handle is dead, and the event
// fires once, at the new instant and after everything already armed for
// it. The deadlines move the node to the root, among its peers and to a
// leaf.
func TestRearmRevivesStoppedNode(t *testing.T) {
	const revived = 99
	for _, to := range []Time{0, Time(5 * time.Millisecond), Time(15 * time.Millisecond), Time(30 * time.Millisecond)} {
		s := NewScheduler(1)
		var got []int
		note := func(arg any) { got = append(got, arg.(int)) }
		h := s.AtFunc(Time(10*time.Millisecond), note, revived)
		type ev struct {
			at Time
			id int
		}
		var want []ev
		for i := 0; i < 20; i++ {
			at := Time(i*7%20+1) * Time(time.Millisecond)
			s.AtFunc(at, note, i)
			want = append(want, ev{at, i})
		}
		if !h.Stop() {
			t.Fatal("Stop on a pending timer reported false")
		}
		queued := len(s.heap)
		h2 := s.Rearm(h, to, note, revived)
		if h2.t != h.t {
			t.Fatalf("to=%v: Rearm took a new node for a queued one", to)
		}
		if len(s.heap) != queued {
			t.Fatalf("to=%v: queue grew from %d to %d", to, queued, len(s.heap))
		}
		if h.Pending() || h.Stop() {
			t.Fatalf("to=%v: the old handle still reaches the revived timer", to)
		}
		if !h2.Pending() {
			t.Fatalf("to=%v: the revived timer is not pending", to)
		}
		checkHeap(t, s)
		s.Run()
		// Armed last, the revived event fires after every peer at its instant.
		want = append(want, ev{to, revived})
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			t.Fatalf("to=%v: %d events fired, want %d", to, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].id {
				t.Fatalf("to=%v: fired %v, want the order %v", to, got, want)
			}
		}
	}
}

// FIFO-among-equal-timestamps property: random bursts of same-instant
// events must fire in schedule order, interleaved correctly with the
// other bursts.
func TestSchedulerFIFOBurstProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		s := NewScheduler(1)
		type tag struct {
			at  Time
			ord int // global schedule order
		}
		var want []tag
		var got []tag
		ord := 0
		for burst := 0; burst < 30; burst++ {
			at := Time(r.Intn(10)) * Time(time.Millisecond) // few distinct times => many collisions
			for k := 0; k < 1+r.Intn(8); k++ {
				tg := tag{at: at, ord: ord}
				ord++
				want = append(want, tg)
				s.At(at, func() { got = append(got, tg) })
			}
		}
		// Expected: stable sort by time, schedule order within a time.
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && (want[j].at < want[j-1].at); j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		s.Run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d of %d events", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// Fuzz-style invariant check: after every random Push/Stop/Rearm/step the
// 4-ary heap must stay a valid min-heap with correct indices.
func TestSchedulerHeapInvariantFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewScheduler(1)
	var handles []TimerHandle
	nop := func() {}
	for op := 0; op < 20000; op++ {
		switch r.Intn(5) {
		case 0, 1: // push (biased so the queue actually grows)
			h := s.At(s.Now()+Time(r.Intn(1000)), nop)
			handles = append(handles, h)
		case 2: // stop a random handle (possibly stale — must be safe)
			if len(handles) > 0 {
				handles[r.Intn(len(handles))].Stop()
			}
		case 3: // fire the earliest
			s.stepOne()
		case 4: // re-arm a random handle (live, stopped, fired or stale)
			if len(handles) > 0 {
				i := r.Intn(len(handles))
				handles[i] = s.Rearm(handles[i], s.Now()+Time(r.Intn(1000)), churnNop, nil)
			}
		}
		checkHeap(t, s)
	}
	// Drain; every remaining live event fires in order.
	last := Time(-1)
	for s.stepOne() {
		if s.Now() < last {
			t.Fatalf("time went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
		checkHeap(t, s)
	}
}

// A stale handle from a fired timer must not be able to stop the
// recycled node's next life.
func TestTimerHandleGenerationSafety(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	h1 := s.After(time.Millisecond, func() {})
	s.Run()
	// The freelist now holds h1's node; the next After reuses it.
	h2 := s.After(time.Millisecond, func() { fired = true })
	if h2.t != h1.t {
		t.Fatal("test premise broken: node was not recycled")
	}
	if h1.Stop() {
		t.Fatal("stale handle stopped a recycled timer")
	}
	if h1.Pending() {
		t.Fatal("stale handle reports pending")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled timer did not fire")
	}
}

// A queue holding nothing but stopped timers, or those and one survivor,
// must drain the dead as they surface and still take and fire new events:
// outside a callback and inside one, where the heap also holds the hollow
// root. A plain two-node TCP transfer followed by Run leaves such a queue.
func TestCompactAllStopped(t *testing.T) {
	for _, n := range []int{64, 65, 1000} {
		for _, survivors := range []int{0, 1} {
			for _, inCallback := range []bool{false, true} {
				s := NewScheduler(1)
				fired := 0
				count := func() { fired++ }
				stopAll := func() {
					var hs []TimerHandle
					for i := 0; i < n; i++ {
						hs = append(hs, s.After(time.Duration(1+i%7)*time.Second, count))
					}
					for _, h := range hs[survivors:] {
						if !h.Stop() {
							t.Fatal("Stop on a pending timer reported false")
						}
					}
					for i := 0; i < 128; i++ {
						s.After(time.Minute, count).Stop()
						checkHeap(t, s)
					}
				}
				if inCallback {
					s.After(time.Millisecond, stopAll)
					s.RunUntil(Time(time.Millisecond))
				} else {
					stopAll()
				}
				if got := s.pending(); got != survivors {
					t.Fatalf("n=%d inCallback=%v: pending = %d, want %d", n, inCallback, got, survivors)
				}
				// The queue must still take and fire events afterwards.
				s.After(time.Hour, count)
				s.Run()
				if fired != survivors+1 {
					t.Errorf("n=%d inCallback=%v: %d counted events fired, want %d", n, inCallback, fired, survivors+1)
				}
				if len(s.heap) != 0 {
					t.Errorf("n=%d inCallback=%v: %d nodes left after Run, want none", n, inCallback, len(s.heap))
				}
				checkHeap(t, s)
			}
		}
	}
}

// The root fired in place must be invisible from inside its own callback:
// dead to its handle and not counted as pending — whether the callback
// schedules nothing, one event (which
// takes the root slot over) or several, and whatever it stops.
func TestHollowRootInvisibleToCallbacks(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := NewScheduler(1)
	live := 0 // scheduled, neither fired nor stopped
	var handles []TimerHandle
	var self TimerHandle
	var event func()
	arm := func() {
		h := s.After(time.Duration(r.Intn(50))*time.Millisecond, event)
		handles = append(handles, h)
		live++
	}
	event = func() {
		live--
		if !s.hollow {
			t.Fatal("callback running without a hollow root")
		}
		if self.Pending() || self.Stop() {
			t.Fatal("the firing timer's own handle is still live")
		}
		checkHeap(t, s)
		for k := r.Intn(4); k > 0; k-- {
			arm()
			checkHeap(t, s)
		}
		if r.Intn(3) == 0 && handles[r.Intn(len(handles))].Stop() {
			live--
		}
		if got := s.pending(); got != live {
			t.Fatalf("pending = %d inside a callback, want %d", got, live)
		}
		if len(handles) > 0 {
			self = handles[len(handles)-1] // checked if it fires next
		}
	}
	for i := 0; i < 200; i++ {
		arm()
	}
	for n := 0; n < 5000 && s.stepOne(); n++ {
		self = TimerHandle{}
		if s.hollow {
			t.Fatal("hollow root outlived its callback")
		}
		checkHeap(t, s)
	}
}

func TestQueuePeak(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	s.After(time.Millisecond, func() {})
	if got := s.QueuePeak(); got != 10 {
		t.Errorf("QueuePeak = %d, want 10", got)
	}
}
