package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Every index runs exactly once, on a worker id below Size, for index
// counts below, at and above the pool size, zero included.
func TestWorkersRunEveryIndexOnce(t *testing.T) {
	for _, size := range []int{0, 1, 2, 4} {
		wk := NewWorkers(size)
		if want := max(1, size); wk.Size() != want {
			t.Fatalf("NewWorkers(%d).Size() = %d, want %d", size, wk.Size(), want)
		}
		for _, n := range []int{0, 1, 3, 100} {
			counts := make([]atomic.Int32, n)
			var badW atomic.Int32
			wk.Run(n, func(w, i int) {
				if w < 0 || w >= wk.Size() {
					badW.Store(int32(w) + 1)
				}
				counts[i].Add(1)
			})
			if badW.Load() != 0 {
				t.Errorf("size %d, n %d: body saw worker %d", size, n, badW.Load()-1)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("size %d, n %d: index %d ran %d times", size, n, i, c)
				}
			}
		}
		wk.Close()
	}
}

// Concurrent bodies never share a worker id: per-worker scratch written
// without synchronization stays consistent (the race detector checks the
// rest).
func TestWorkersScratchPerWorker(t *testing.T) {
	wk := NewWorkers(4)
	defer wk.Close()
	sums := make([]int, wk.Size())
	for round := 0; round < 50; round++ {
		wk.Run(64, func(w, i int) { sums[w] += i })
	}
	total := 0
	for _, s := range sums {
		total += s
	}
	if want := 50 * 64 * 63 / 2; total != want {
		t.Errorf("per-worker sums add to %d, want %d", total, want)
	}
}

// A closed pool still runs, on the caller; Close twice is harmless.
func TestWorkersRunAfterClose(t *testing.T) {
	wk := NewWorkers(3)
	wk.Close()
	wk.Close()
	ran := 0
	wk.Run(10, func(w, i int) {
		if w != 0 {
			t.Errorf("closed pool ran index %d on worker %d", i, w)
		}
		ran++
	})
	if ran != 10 {
		t.Errorf("closed pool ran %d of 10 indices", ran)
	}
}

// Run allocates nothing with a body bound once.
func TestAllocGateWorkersRun(t *testing.T) {
	wk := NewWorkers(2)
	defer wk.Close()
	sums := make([]int, wk.Size())
	body := func(w, i int) { sums[w] += i }
	if a := testing.AllocsPerRun(100, func() { wk.Run(16, body) }); a != 0 {
		t.Errorf("Run allocates %.1f times per call, want 0", a)
	}
}

// Close waits for the helpers: the goroutine count is back where it was.
func TestWorkersCloseStopsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	wk := NewWorkers(8)
	wk.Run(100, func(int, int) {})
	wk.Close()
	waitGoroutines(t, base)
}

// waitGoroutines fails t unless the goroutine count drops to at most base
// within a second: an exiting goroutine may still be counted for a moment
// after the pool it belonged to has returned.
func waitGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
