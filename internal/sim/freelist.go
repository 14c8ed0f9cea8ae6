package sim

// Freelist is the engine's one freelist: a LIFO of recycled *T. Get
// returns nil on a miss, so the caller allocates with its own owner stamp;
// per-type policy (owner and double-release guards, generation stamps,
// poisoning) stays with the caller. Not safe for concurrent use: every
// pool belongs to one scheduler's goroutine.
type Freelist[T any] struct {
	free  []*T
	stats PoolStats
}

// PoolStats counts a pool's traffic. Every object drawn goes back once its
// one owner is done with it, so once every object drawn reached a terminal
// point, Gets == Puts.
type PoolStats struct {
	Gets, Hits, Puts uint64 // Hits: Gets served from the list
}

// Get pops the object put last, or returns nil.
func (l *Freelist[T]) Get() *T {
	l.stats.Gets++
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.stats.Hits++
	return x
}

// Put pushes x for the next Get.
func (l *Freelist[T]) Put(x *T) {
	l.stats.Puts++
	l.free = append(l.free, x)
}

// Stats returns a copy of the counters.
func (l *Freelist[T]) Stats() PoolStats { return l.stats }

// Adopt moves every object listed on from beneath l's own, keeping their
// order, and leaves from empty; both lists' counters stay as they were, so
// each still counts only its own Gets and Puts. The caller re-stamps
// the owner of what it takes over (read from.All() first).
func (l *Freelist[T]) Adopt(from *Freelist[T]) {
	l.free = append(from.free, l.free...)
	from.free = nil
}

// All returns the listed objects, the next Get's last; read, do not keep.
func (l *Freelist[T]) All() []*T { return l.free }
