package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// Every way a supplied key could reorder events is a panic, not a silent
// reordering.
func TestAtFuncSeqMisuse(t *testing.T) {
	nop := func(any) {}
	cases := []struct {
		name string
		want string
		do   func(s *Scheduler)
	}{
		{"nil event", "nil event", func(s *Scheduler) { s.AtFuncSeq(0, s.ReserveSeq(), nil, nil) }},
		{"never reserved", "never reserved", func(s *Scheduler) { s.AtFuncSeq(Time(time.Second), 0, nop, nil) }},
		{"one past the last reserved", "never reserved", func(s *Scheduler) {
			seq := s.ReserveSeq()
			s.AtFuncSeq(Time(time.Second), seq+1, nop, nil)
		}},
		{"in the past", "before now", func(s *Scheduler) {
			seq := s.ReserveSeq()
			s.RunUntil(Time(time.Second))
			s.AtFuncSeq(Time(time.Millisecond), seq, nop, nil)
		}},
		{"tie below the firing event", "sorts before the event being fired", func(s *Scheduler) {
			early := s.ReserveSeq()
			s.At(Time(time.Second), func() { s.AtFuncSeq(s.Now(), early, nop, nil) })
			s.Run()
		}},
		// Rearm of a queued node refuses what AtFunc refuses.
		{"re-armed into the past", "before now", func(s *Scheduler) {
			h := s.AtFunc(Time(2*time.Second), nop, nil)
			s.RunUntil(Time(time.Second))
			s.Rearm(h, Time(time.Millisecond), nop, nil)
		}},
		{"re-armed with a nil event", "nil event", func(s *Scheduler) {
			s.Rearm(s.AtFunc(Time(time.Second), nop, nil), Time(time.Second), nil, nil)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: recovered %q, want a panic mentioning %q", c.name, msg, c.want)
				}
			}()
			c.do(NewScheduler(1))
		}()
	}

	// Not misuse: an old key at the current instant once the clock was
	// advanced there by RunUntil (nothing has fired at it yet), and the
	// firing event's successor under a later reserved key at the same time.
	s := NewScheduler(1)
	old := s.ReserveSeq()
	s.At(Time(time.Millisecond), func() {})
	s.RunUntil(Time(time.Second))
	fired := 0
	s.AtFuncSeq(Time(time.Second), old, func(any) {
		fired++
		s.AtFuncSeq(s.Now(), s.ReserveSeq(), func(any) { fired++ }, nil)
	}, nil)
	s.Run()
	if fired != 2 {
		t.Errorf("legitimate same-instant keys fired %d of 2 events", fired)
	}
}

// Keys reserved in one order and inserted in another fire sorted by
// (at, seq), interleaved correctly with ordinary timers. (The FIFO use of
// reserved keys — arm the head only, re-arm from its callback — runs
// against the model in randomWorkload.)
func TestReservedKeysFireSorted(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	for trial := int64(0); trial < 50; trial++ {
		s := NewScheduler(1)
		r := rand.New(rand.NewSource(trial))
		var got, want, reserved []key
		record := func(arg any) { got = append(got, arg.(key)) }
		for i := 0; i < 300; i++ {
			k := key{at: Time(r.Intn(20)) * Time(time.Millisecond)} // few instants, many ties
			if r.Intn(3) == 0 {
				// An ordinary timer takes its seq at scheduling time.
				k.seq = s.seq
				s.AtFunc(k.at, record, k)
			} else {
				k.seq = s.ReserveSeq()
				reserved = append(reserved, k)
			}
			want = append(want, k)
		}
		r.Shuffle(len(reserved), func(i, j int) { reserved[i], reserved[j] = reserved[j], reserved[i] })
		for _, k := range reserved {
			s.AtFuncSeq(k.at, k.seq, record, k)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		s.RunUntil(Time(7 * time.Millisecond)) // split across run calls
		s.Run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d of %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
