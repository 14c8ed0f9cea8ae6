package sim

import (
	"sync"
	"sync/atomic"
)

// Workers is the engine's one fork/join pool. NewWorkers(n) starts n-1
// helper goroutines that block between runs; Run hands indices out off one
// atomic cursor to them and to the caller, which is worker 0, so a
// one-worker pool runs inline. Work units are indices and a worker id only
// picks a private scratch, so results do not depend on the pool size when
// the merge after Run is order-invariant. The channel hand-offs order what
// the caller wrote before Run before every body, and every body before
// Run's return. Run allocates nothing when body is a func value bound once.
type Workers struct {
	size       int
	wake, done chan struct{}
	exited     sync.WaitGroup
	closed     bool
	next       atomic.Int64
	n          int
	body       func(w, i int)
}

// NewWorkers starts a pool of max(n, 1) workers, the caller of Run
// included.
func NewWorkers(n int) *Workers {
	wk := &Workers{size: max(1, n)}
	wk.wake = make(chan struct{}, wk.size-1)
	wk.done = make(chan struct{}, wk.size-1)
	wk.exited.Add(wk.size - 1)
	for w := 1; w < wk.size; w++ {
		go func() {
			defer wk.exited.Done()
			for range wk.wake {
				wk.claim(w)
				wk.done <- struct{}{}
			}
		}()
	}
	return wk
}

// Size returns the number of workers: every w a body sees is below it.
func (wk *Workers) Size() int { return wk.size }

// Run calls body(w, i) once for every i in [0, n) and returns when all
// calls have. Concurrent calls never share a w. After Close everything
// runs on the caller.
func (wk *Workers) Run(n int, body func(w, i int)) {
	helpers := min(wk.size, n) - 1
	if wk.closed || helpers <= 0 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	wk.n, wk.body = n, body
	wk.next.Store(0)
	for range helpers {
		wk.wake <- struct{}{}
	}
	wk.claim(0)
	for range helpers {
		<-wk.done
	}
	wk.body = nil
}

func (wk *Workers) claim(w int) {
	for i := int(wk.next.Add(1) - 1); i < wk.n; i = int(wk.next.Add(1) - 1) {
		wk.body(w, i)
	}
}

// Close stops the helpers and waits for them to exit. Idempotent.
func (wk *Workers) Close() {
	if !wk.closed {
		wk.closed = true
		close(wk.wake)
		wk.exited.Wait()
	}
}
