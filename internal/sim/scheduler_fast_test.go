package sim

import (
	"math/rand"
	"testing"
	"time"
)

// checkHeap validates the 4-ary heap invariant and the index bookkeeping,
// and that nstopped matches the stopped timers actually in the heap.
func checkHeap(t *testing.T, s *Scheduler) {
	t.Helper()
	stopped := 0
	for i, tm := range s.heap {
		if int(tm.index) != i {
			t.Fatalf("heap[%d].index = %d", i, tm.index)
		}
		if tm.stopped {
			stopped++
		}
		if i > 0 {
			p := (i - 1) / heapArity
			if timerLess(tm, s.heap[p]) {
				t.Fatalf("heap violation: heap[%d]=(%v,%d) < parent heap[%d]=(%v,%d)",
					i, tm.at, tm.seq, p, s.heap[p].at, s.heap[p].seq)
			}
		}
	}
	if stopped != s.nstopped {
		t.Fatalf("nstopped = %d, heap holds %d stopped timers", s.nstopped, stopped)
	}
}

// The regression test for unbounded Stop() retention: a long campaign
// arming and cancelling a million retransmit timers must keep both the
// queue and Pending() bounded, with cancelled nodes recycled rather than
// accumulated.
func TestStoppedTimersCompacted(t *testing.T) {
	s := NewScheduler(1)
	sentinel := s.At(Time(2*Hour), func() {})
	const n = 1_000_000
	for i := 0; i < n; i++ {
		h := s.After(time.Hour, func() {})
		if !h.Stop() {
			t.Fatal("Stop on a fresh timer reported false")
		}
	}
	if got := len(s.heap); got > 2*compactMin {
		t.Errorf("heap length after %d arm/stop cycles = %d, want <= %d", n, got, 2*compactMin)
	}
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1 (the sentinel)", got)
	}
	if got := len(s.free.All()); got > 2*compactMin {
		t.Errorf("freelist grew to %d nodes; recycling is not reusing them", got)
	}
	if !sentinel.Pending() {
		t.Error("sentinel lost across compactions")
	}
	checkHeap(t, s)
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
			at := Time(r.Intn(10)) * Time(Millisecond) // few distinct times => many collisions
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

// Fuzz-style invariant check: after every random Push/Stop/Step the
// 4-ary heap must stay a valid min-heap with correct indices.
func TestSchedulerHeapInvariantFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewScheduler(1)
	var handles []TimerHandle
	nop := func() {}
	for op := 0; op < 20000; op++ {
		switch r.Intn(4) {
		case 0, 1: // push (biased so the queue actually grows)
			h := s.At(s.Now()+Time(r.Intn(1000)), nop)
			handles = append(handles, h)
		case 2: // stop a random handle (possibly stale — must be safe)
			if len(handles) > 0 {
				handles[r.Intn(len(handles))].Stop()
			}
		case 3: // fire the earliest
			s.Step()
		}
		checkHeap(t, s)
	}
	// Drain; every remaining live event fires in order.
	last := Time(-1)
	for s.Step() {
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
	if h1.At() != 0 {
		t.Fatal("stale handle reports a fire time")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled timer did not fire")
	}
}

// compact used to index an empty heap when every queued timer had been
// stopped ((0-2)/heapArity truncates to 0). Stops below compactMin sweep
// nothing, so a queue can fill with dead timers; the stop that takes it to
// compactMin entries, all dead, then compacts down to none — a plain
// two-node TCP transfer followed by Run reached it. All stopped, one
// survivor, and both again from inside a callback, where the heap also
// holds the hollow root.
func TestCompactAllStopped(t *testing.T) {
	for _, n := range []int{compactMin, compactMin + 1, 1000} {
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
					// What is left sits below compactMin, unswept. Arm and
					// stop one timer at a time until a sweep finds nothing
					// (or only the survivor) alive.
					for i := 0; i < 2*compactMin; i++ {
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
				if got := s.Pending(); got != survivors {
					t.Fatalf("n=%d inCallback=%v: Pending = %d, want %d", n, inCallback, got, survivors)
				}
				// The queue must still take and fire events afterwards.
				s.After(time.Hour, count)
				s.Run()
				if fired != survivors+1 {
					t.Errorf("n=%d inCallback=%v: %d counted events fired, want %d", n, inCallback, fired, survivors+1)
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
		if got := s.Pending(); got != live {
			t.Fatalf("Pending = %d inside a callback, want %d", got, live)
		}
		if len(handles) > 0 {
			self = handles[len(handles)-1] // checked if it fires next
		}
	}
	for i := 0; i < 200; i++ {
		arm()
	}
	for n := 0; n < 5000 && s.Step(); n++ {
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
