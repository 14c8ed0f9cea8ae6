package sim

import (
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30*Time(time.Millisecond), func() { got = append(got, 3) })
	s.At(10*Time(time.Millisecond), func() { got = append(got, 1) })
	s.At(20*Time(time.Millisecond), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Time(time.Millisecond) {
		t.Errorf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAmongEqualTimes(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(time.Second), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestSchedulerAfterNesting(t *testing.T) {
	s := NewScheduler(1)
	var fires []Time
	var tick func()
	n := 0
	tick = func() {
		fires = append(fires, s.Now())
		n++
		if n < 5 {
			s.After(100*time.Millisecond, tick)
		}
	}
	s.After(100*time.Millisecond, tick)
	s.Run()
	if len(fires) != 5 {
		t.Fatalf("got %d fires, want 5", len(fires))
	}
	for i, at := range fires {
		want := Time((i + 1) * 100 * int(time.Millisecond))
		if at != want {
			t.Errorf("fire %d at %v, want %v", i, at, want)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	tm := s.After(time.Second, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before Run")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if ran {
		t.Fatal("stopped timer ran")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	s.At(Time(2*time.Second), func() { ran = true })
	s.RunUntil(Time(time.Second))
	if ran {
		t.Fatal("future event ran early")
	}
	if s.Now() != Time(time.Second) {
		t.Fatalf("clock = %v, want 1s", s.Now())
	}
	s.RunUntil(Time(3 * time.Second))
	if !ran {
		t.Fatal("due event did not run")
	}
	if s.Now() != Time(3*time.Second) {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.At(Time(time.Second), func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	s.At(Time(time.Millisecond), func() {})
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Stream("loss")
	b := NewRNG(42).Stream("loss")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed+name streams diverged")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	root := NewRNG(42)
	a := root.Stream("a")
	b := root.Stream("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 'a' and 'b' coincide in %d/100 draws", same)
	}
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 50; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(0).Add(time.Second)
	if a != Time(time.Second) {
		t.Fatalf("Add: %v", a)
	}
	if d := a.Sub(Time(0)); d != time.Second {
		t.Fatalf("Sub: %v", d)
	}
	if s := Time(1500 * time.Millisecond).Seconds(); s != 1.5 {
		t.Fatalf("Seconds: %v", s)
	}
}
