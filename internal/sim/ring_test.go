package sim

import (
	"testing"
)

// ringStep applies one operation to the ring and to a slice model and fails
// on the first disagreement: in what the operation returns, or in the
// queue it leaves behind. Elements are pointers so that identity, not just
// value, has to survive wrap-around and growth.
func ringStep(t *testing.T, r *Ring[*int], model *[]*int, op, arg byte) {
	t.Helper()
	m := *model
	switch op % 7 {
	case 0, 1: // push twice as often as anything else: the ring must grow
		x := new(int)
		*x = int(arg)
		r.Push(x)
		m = append(m, x)
	case 2:
		x := new(int)
		*x = -int(arg)
		r.PushFront(x)
		m = append([]*int{x}, m...)
	case 3:
		if len(m) == 0 {
			return
		}
		if got := r.Pop(); got != m[0] {
			t.Fatalf("Pop = %p, model front %p", got, m[0])
		}
		m = m[1:]
	case 4: // mutate through Front and Back, as queue heads are trimmed in place
		if len(m) == 0 {
			return
		}
		if *r.Front() != m[0] || *r.Back() != m[len(m)-1] {
			t.Fatalf("Front/Back = %p/%p, model %p/%p", *r.Front(), *r.Back(), m[0], m[len(m)-1])
		}
		*r.Front(), *r.Back() = m[len(m)-1], m[0]
		m[0], m[len(m)-1] = m[len(m)-1], m[0]
	case 6:
		if len(m) == 0 {
			return
		}
		if got := r.PopBack(); got != m[len(m)-1] {
			t.Fatalf("PopBack = %p, model back %p", got, m[len(m)-1])
		}
		m = m[:len(m)-1]
	case 5:
		if arg%16 == 0 {
			r.Reset()
			m = m[:0]
		}
	}
	*model = m
	if r.Len() != len(m) {
		t.Fatalf("Len = %d, model %d", r.Len(), len(m))
	}
	for i, want := range m {
		if got := *r.At(i); got != want {
			t.Fatalf("At(%d) = %p, model %p", i, got, want)
		}
	}
	// Capacity is zero or a power of two, at least 4, and every slot
	// outside the live window is zeroed: a popped element is not kept alive.
	if n := len(r.buf); n != 0 && (n < 4 || n&(n-1) != 0) {
		t.Fatalf("capacity %d", n)
	}
	for i := r.n; i < len(r.buf); i++ {
		if r.buf[(r.head+i)&(len(r.buf)-1)] != nil {
			t.Fatalf("dead slot %d still holds an element", i)
		}
	}
}

// FuzzRing holds push, pushFront, pop, popBack, reset and in-place mutation through
// Front and Back to a slice model across wrap-around and growth. A program
// is a sequence of (op, arg) byte pairs.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 0, 3, 0, 0, 4, 0, 5, 0, 6, 4, 0, 3, 0})
	f.Add([]byte{2, 1, 2, 2, 0, 3, 2, 4, 2, 5, 3, 0, 3, 0, 4, 0, 5, 16, 0, 9, 3, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 3, 0, 3, 0, 0, 5, 0, 6, 0, 7, 2, 8, 2, 9, 4, 0, 3, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 6, 0, 2, 6, 6, 0, 3, 0, 6, 0, 0, 7, 6, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var r Ring[*int]
		var model []*int
		for ; len(prog) >= 2; prog = prog[2:] {
			ringStep(t, &r, &model, prog[0], prog[1])
		}
	})
}

// A ring that reached its high-water length cycles through its array
// without allocating, and its first growth is 4 slots.
func TestRingReuse(t *testing.T) {
	var r Ring[int]
	r.Push(1)
	if len(r.buf) != 4 {
		t.Fatalf("first growth to %d slots, want 4", len(r.buf))
	}
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	cycle := func() {
		for i := 0; i < 64; i++ {
			r.Push(i)
			r.PushFront(r.Pop())
			r.Pop()
		}
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("%v allocations per cycle at the high-water length", allocs)
	}
}
