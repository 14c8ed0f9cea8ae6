package netem

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

// chainScenario drives one fixed packet schedule through a 3-hop chain
// whose first two links carry everything a link without a rate must
// apply in its single hop — a delay cliff that makes the FIFO clamp bind,
// deterministic jitter, an outage window, Bernoulli loss — plus a final
// rated hop. rate is the first two links' RateBps. It returns the delivery
// instants at the far node and the per-link stats.
func chainScenario(rate float64) ([]sim.Time, []LinkStats) {
	s := sim.NewScheduler(42)
	nw := New(s)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	c := nw.NewNode("c", MustParseAddr("10.0.0.3"))
	d := nw.NewNode("d", MustParseAddr("10.0.0.4"))
	l1 := nw.AddLink(a, b, LinkConfig{
		RateBps: rate,
		// Cliff at 50 ms: packets sent just after are clamped behind
		// packets sent just before.
		Delay: func(now sim.Time) time.Duration {
			if now < sim.Time(50*time.Millisecond) {
				return 10 * time.Millisecond
			}
			return time.Millisecond
		},
		Jitter: func(now sim.Time) time.Duration { return time.Duration(int64(now) % 5000) },
	})
	l2 := nw.AddLink(b, c, LinkConfig{
		RateBps: rate,
		Delay:   ConstantDelay(5 * time.Millisecond),
		Down: func(now sim.Time) bool {
			return now >= sim.Time(20*time.Millisecond) && now < sim.Time(30*time.Millisecond)
		},
		Loss: &BernoulliLoss{P: 0.2, Rng: sim.NewRNG(7)},
	})
	l3 := nw.AddLink(c, d, LinkConfig{RateBps: 8e6, Delay: ConstantDelay(time.Millisecond)})
	a.SetDefaultRoute(l1)
	b.SetDefaultRoute(l2)
	c.SetDefaultRoute(l3)

	var arrivals []sim.Time
	d.Bind(ProtoUDP, 1, func(*Packet) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 200; i++ {
		s.AtFunc(sim.Time(i)*sim.Time(500*time.Microsecond), func(any) {
			a.Send(&Packet{Dst: d.Addr(), DstPort: 1, Proto: ProtoUDP, Size: 1000})
		}, nil)
	}
	s.Run()
	return arrivals, []LinkStats{l1.Stats(), l2.Stats(), l3.Stats()}
}

// TestTierEquivalence holds the one-event path of a link without a rate
// to the two-event path: an infinite rate is a serialization hop of zero
// length, so the same chain with RateBps +Inf on its first two links runs
// every packet through the serialization ring and must deliver at the
// same instants with the same link counters — clamp binding, RNG draw
// order and drop decisions included. Only QueuedPeak may differ: the
// zero-length hop still counts its packet.
func TestTierEquivalence(t *testing.T) {
	refArrivals, refStats := chainScenario(math.Inf(1))
	gotArrivals, gotStats := chainScenario(0)
	for i := range refStats {
		if i < 2 && (refStats[i].QueuedPeak == 0 || gotStats[i].QueuedPeak != 0) {
			t.Errorf("link %d: QueuedPeak %d at infinite rate, %d without a rate; want > 0 and 0",
				i, refStats[i].QueuedPeak, gotStats[i].QueuedPeak)
		}
		refStats[i].QueuedPeak, gotStats[i].QueuedPeak = 0, 0
	}
	if !reflect.DeepEqual(gotArrivals, refArrivals) {
		t.Errorf("arrivals without a rate diverge from the infinite-rate chain: %d vs %d deliveries", len(gotArrivals), len(refArrivals))
	}
	if !reflect.DeepEqual(gotStats, refStats) {
		t.Errorf("link stats diverge:\n got %+v\nwant %+v", gotStats, refStats)
	}
	if refStats[1].DropsLoss == 0 || refStats[1].DropsDown == 0 {
		t.Fatalf("scenario exercised no drops (%+v); the equivalence proves nothing", refStats[1])
	}
}

// TestMutatorsTakeEffectOnNextSend: a link derives its hops from its
// configuration at each send, so a mutator can never leave it on a path
// that skips what the mutation just made reachable.
func TestMutatorsTakeEffectOnNextSend(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	l := nw.AddLink(a, b, LinkConfig{Delay: ConstantDelay(time.Millisecond)})
	a.AddRoute(b.Addr(), l)
	// burst sends n packets back to back and returns how many scheduler
	// events carrying them took.
	burst := func(n int) uint64 {
		before := s.Processed
		for i := 0; i < n; i++ {
			a.Send(&Packet{Dst: b.Addr(), Proto: ProtoUDP, Size: 1000})
		}
		s.Run()
		return s.Processed - before
	}

	if got := burst(3); got != 3 {
		t.Errorf("no rate: %d events for 3 packets, want 3", got)
	}
	if peak := l.Stats().QueuedPeak; peak != 0 {
		t.Errorf("no rate: QueuedPeak = %d, want 0", peak)
	}

	// Rated but with nothing to decide as serialization ends: one event
	// per packet still, the arrival.
	l.SetRate(8e6)
	if got := burst(3); got != 3 {
		t.Errorf("after SetRate(8e6): %d events for 3 packets, want 3", got)
	}
	if peak := l.Stats().QueuedPeak; peak != 3000 {
		t.Errorf("after SetRate(8e6): QueuedPeak = %d, want 3000", peak)
	}
	// A loss process is drawn as serialization ends: two events.
	l.SetLoss(&BernoulliLoss{P: 0, Rng: sim.NewRNG(1)})
	if got := burst(3); got != 6 {
		t.Errorf("after SetLoss on a rated link: %d events for 3 packets, want 6", got)
	}
	l.SetLoss(nil)

	l.SetRate(0)
	if got := burst(3); got != 3 {
		t.Errorf("after SetRate(0): %d events for 3 packets, want 3", got)
	}
	if st := l.Stats(); st.QueuedPeak != 3000 || l.QueuedBytes() != 0 {
		t.Errorf("after SetRate(0): QueuedPeak = %d, QueuedBytes = %d; want 3000 and 0", st.QueuedPeak, l.QueuedBytes())
	}

	l.SetDown(func(sim.Time) bool { return true })
	burst(1)
	if st := l.Stats(); st.DropsDown != 1 {
		t.Errorf("after SetDown: DropsDown = %d, want 1", st.DropsDown)
	}
	l.SetDown(nil)
	l.SetLoss(&BernoulliLoss{P: 1, Rng: sim.NewRNG(2)})
	burst(1)
	if st := l.Stats(); st.DropsLoss != 1 || st.Delivered != 12 {
		t.Errorf("after SetLoss: DropsLoss = %d, Delivered = %d; want 1 and 12", st.DropsLoss, st.Delivered)
	}
}

// TestSetRateZeroLeavesNoPhantomOccupancy: packets admitted at a rate are
// un-counted when they leave the serialization ring even if the rate is
// zero by then. An un-count that looked at the current rate would leave
// them in QueuedBytes for good, and a later burst would meet a queue cap
// that nothing is occupying.
func TestSetRateZeroLeavesNoPhantomOccupancy(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	l := nw.AddLink(a, b, LinkConfig{RateBps: 8e4, QueueBytes: 3000}) // 1000 B = 100 ms
	a.AddRoute(b.Addr(), l)
	send := func(n int) {
		for i := 0; i < n; i++ {
			a.Send(&Packet{Dst: b.Addr(), Proto: ProtoUDP, Size: 1000})
		}
	}
	send(3)
	s.At(sim.Time(150*time.Millisecond), func() { l.SetRate(0) }) // 1 is out, 2 and 3 are queued
	s.At(sim.Time(time.Second), func() {
		if got := l.QueuedBytes(); got != 0 {
			t.Errorf("QueuedBytes = %d on an idle link at 1 s, want 0", got)
		}
		l.SetRate(8e4)
		send(2)
	})
	s.Run()
	if got := l.QueuedBytes(); got != 0 {
		t.Errorf("QueuedBytes = %d after the run, want 0", got)
	}
	if st := l.Stats(); st.DropsQueue != 0 || st.Delivered != 5 {
		t.Errorf("stats = %+v; want no queue drop and 5 deliveries", st)
	}
}

// TestQueuedPeakCountsInService pins the documented QueuedPeak
// semantics: the packet in service occupies its bytes until
// serialization ends, so three back-to-back 1000 B sends peak at 3000,
// not 2000 — and a rate-0 link's peak stays identically zero.
func TestQueuedPeakCountsInService(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	rated := nw.AddLink(a, b, LinkConfig{RateBps: 8e6})
	a.AddRoute(b.Addr(), rated)
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Dst: b.Addr(), Proto: ProtoUDP, Size: 1000})
	}
	s.Run()
	if got := rated.Stats().QueuedPeak; got != 3000 {
		t.Errorf("QueuedPeak = %d, want 3000 (two queued plus the packet in service)", got)
	}

	s2 := sim.NewScheduler(1)
	nw2 := New(s2)
	x := nw2.NewNode("x", MustParseAddr("10.0.1.1"))
	y := nw2.NewNode("y", MustParseAddr("10.0.1.2"))
	flat := nw2.AddLink(x, y, LinkConfig{Delay: ConstantDelay(time.Millisecond)})
	x.AddRoute(y.Addr(), flat)
	for i := 0; i < 3; i++ {
		x.Send(&Packet{Dst: y.Addr(), Proto: ProtoUDP, Size: 1000})
	}
	s2.Run()
	if got := flat.Stats().QueuedPeak; got != 0 {
		t.Errorf("rate-0 QueuedPeak = %d, want 0", got)
	}
}

// TestNegativeJitterPanics enforces the LinkConfig.Jitter contract with
// and without a serialization hop: a negative sample must panic
// deterministically at the draw instant instead of corrupting the FIFO
// clamp.
func TestNegativeJitterPanics(t *testing.T) {
	for name, rate := range map[string]float64{"unrated": 0, "rated": 8e6} {
		t.Run(name, func(t *testing.T) {
			s := sim.NewScheduler(1)
			nw := New(s)
			a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
			b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
			l := nw.AddLink(a, b, LinkConfig{
				RateBps: rate,
				Jitter:  func(sim.Time) time.Duration { return -time.Microsecond },
			})
			a.AddRoute(b.Addr(), l)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("negative jitter did not panic")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "Jitter") {
					t.Fatalf("panic = %v, want the jitter contract message", r)
				}
			}()
			a.Send(&Packet{Dst: b.Addr(), Proto: ProtoUDP, Size: 100})
			s.Run()
		})
	}
}

// TestAccountBypassedGuards pins the fast-forward crediting contract:
// stats and clamp state advance on a link without a rate, the clamp only
// moves forward, and crediting a rated link panics.
func TestAccountBypassedGuards(t *testing.T) {
	s := sim.NewScheduler(1)
	nw := New(s)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	l := nw.AddLink(a, b, LinkConfig{Delay: ConstantDelay(time.Millisecond)})

	l.AccountBypassed(3, sim.Time(5*time.Millisecond))
	if st := l.Stats(); st.Sent != 3 || st.Delivered != 3 {
		t.Errorf("stats after crediting 3 = %+v", st)
	}
	if got := l.LastArrival(); got != sim.Time(5*time.Millisecond) {
		t.Errorf("LastArrival = %v, want 5ms", got)
	}
	// Max-merge: an earlier virtual arrival must not rewind the clamp.
	l.AccountBypassed(1, sim.Time(2*time.Millisecond))
	if got := l.LastArrival(); got != sim.Time(5*time.Millisecond) {
		t.Errorf("LastArrival rewound to %v", got)
	}

	rated := nw.AddLink(a, b, LinkConfig{RateBps: 8e6})
	defer func() {
		if recover() == nil {
			t.Fatal("AccountBypassed on a rated link did not panic")
		}
	}()
	rated.AccountBypassed(1, 0)
}
