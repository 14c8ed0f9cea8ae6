package sim

// Ring is the engine's one FIFO: a deque of T values in a power-of-two
// array that wraps around, so a queue that reached its high-water length
// stops allocating. Its first growth is 4 slots — most link hops of a fleet
// carry one probe at a time — and every later one doubles. Elements are
// reached in place through Front, Back and At; a pointer is good until the
// next Push or PushFront. Not safe for concurrent use.
type Ring[T any] struct {
	buf     []T
	head, n int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends x at the back.
func (r *Ring[T]) Push(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

// PushFront puts x ahead of everything queued.
func (r *Ring[T]) PushFront(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = x
	r.n++
}

// Pop removes and returns the front element, zeroing its slot so the ring
// keeps nothing alive; the ring must not be empty.
func (r *Ring[T]) Pop() T {
	var zero T
	x := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}

// PopBack removes and returns the back element, zeroing its slot; the ring
// must not be empty.
func (r *Ring[T]) PopBack() T {
	var zero T
	r.n--
	i := (r.head + r.n) & (len(r.buf) - 1)
	x := r.buf[i]
	r.buf[i] = zero
	return x
}

// Front returns the front element; the ring must not be empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Back returns the element pushed last; the ring must not be empty.
func (r *Ring[T]) Back() *T { return r.At(r.n - 1) }

// At returns the i-th element from the front, 0 <= i < Len().
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Reset empties the ring, keeping its array.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// grow doubles a full ring, unwrapping it to start at index 0.
func (r *Ring[T]) grow() {
	buf := make([]T, max(4, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
