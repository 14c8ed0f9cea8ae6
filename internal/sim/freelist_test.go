package sim

import "testing"

// The list is LIFO, misses return nil, and the counters add up.
func TestFreelistLIFOAndStats(t *testing.T) {
	var l Freelist[int]
	if x := l.Get(); x != nil {
		t.Fatalf("empty list returned %v", x)
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if len(l.All()) != 2 || l.All()[1] != b {
		t.Fatalf("All %v after two puts", l.All())
	}
	if x := l.Get(); x != b {
		t.Error("Get did not return the object put last")
	}
	if x := l.Get(); x != a {
		t.Error("second Get did not return the object put first")
	}
	want := PoolStats{Gets: 3, Hits: 2, Puts: 2}
	if st := l.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}

// Adopt moves the listed objects beneath the adopter's own in their order,
// leaves the giver empty and touches neither list's counters.
func TestFreelistAdoptKeepsOrderAndCounters(t *testing.T) {
	var from, to Freelist[int]
	a, b, c := new(int), new(int), new(int)
	from.Put(a)
	from.Put(b)
	from.Put(new(int))
	from.Get()
	to.Put(c)
	before := [2]PoolStats{from.Stats(), to.Stats()}
	to.Adopt(&from)
	if after := [2]PoolStats{from.Stats(), to.Stats()}; after != before {
		t.Errorf("counters %+v after Adopt, want %+v", after, before)
	}
	if len(from.All()) != 0 {
		t.Errorf("giver still lists %d objects", len(from.All()))
	}
	for i, want := range []*int{c, b, a} {
		if x := to.Get(); x != want {
			t.Errorf("Get %d after Adopt returned the wrong object", i)
		}
	}
	if to.Get() != nil {
		t.Error("adopter lists more than it had and took over")
	}
	from.Put(a)
	if len(from.All()) != 1 || len(to.All()) != 0 {
		t.Error("a Put on the giver after Adopt reached the adopter")
	}
}
