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
	l.Share()
	want := PoolStats{Gets: 3, Hits: 2, Puts: 2, Shared: 1}
	if st := l.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	if hr := l.Stats().HitRate(); hr != 2.0/3 {
		t.Errorf("hit rate %v, want 2/3", hr)
	}
	if hr := (PoolStats{}).HitRate(); hr != 0 {
		t.Errorf("hit rate of no draws %v, want 0", hr)
	}
}
