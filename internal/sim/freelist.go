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

// PoolStats counts a pool's traffic. Shared counts objects that left the
// pool for good because something kept referencing them, so once every
// object drawn reached a terminal point, Gets == Puts + Shared.
type PoolStats struct {
	Gets, Hits, Puts, Shared uint64 // Hits: Gets served from the list
}

// HitRate returns the fraction of Gets served without allocating.
func (st PoolStats) HitRate() float64 {
	if st.Gets == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Gets)
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

// Share counts one drawn object that will never come back.
func (l *Freelist[T]) Share() { l.stats.Shared++ }

// Stats returns a copy of the counters.
func (l *Freelist[T]) Stats() PoolStats { return l.stats }

// All returns the listed objects, the next Get's last; read, do not keep.
func (l *Freelist[T]) All() []*T { return l.free }
