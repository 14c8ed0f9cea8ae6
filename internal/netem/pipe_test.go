package netem

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"starlinkperf/internal/sim"
)

// --- the per-packet-timer oracle ------------------------------------------
//
// What the datapath did before the link pipe: every packet in flight is its
// own scheduler timer, one AtFunc per hop. It shares admit, leaveQueue,
// transmit and deliver with the production path, so the only thing under
// test is how events are queued: pipe.go must fire them in this order
// exactly.

type oracleEvent struct {
	link *Link
	pkt  *Packet
}

func oracleSend(l *Link, pkt *Packet) {
	s := l.net.sched
	txDone, ok := l.admit(pkt)
	if !ok {
		return
	}
	if l.cfg.RateBps > 0 {
		s.AtFunc(txDone, oracleTxDone, &oracleEvent{l, pkt})
	} else if arrival, ok := l.transmit(pkt); ok {
		s.AtFunc(arrival, oracleDeliver, &oracleEvent{l, pkt})
	}
}

func oracleTxDone(arg any) {
	ev := arg.(*oracleEvent)
	ev.link.leaveQueue(ev.pkt)
	if arrival, ok := ev.link.transmit(ev.pkt); ok {
		ev.link.net.sched.AtFunc(arrival, oracleDeliver, ev)
	}
}

func oracleDeliver(arg any) {
	ev := arg.(*oracleEvent)
	ev.link.deliver(ev.pkt)
}

func pipeSend(l *Link, pkt *Packet) { l.send(pkt) }

// --- randomized scenario --------------------------------------------------

// pipeRecord is one observable outcome: a delivery (reason -1) or a drop.
type pipeRecord struct {
	at     sim.Time
	id     uint64
	link   int
	reason int
}

type pipeOutcome struct {
	log       []pipeRecord
	stats     []LinkStats
	processed uint64
}

// runPipeScenario drives one seeded world through send: five links out of
// a single source, each with its own mix of rate, queue cap, jitter, delay cliff, Gilbert-Elliott loss and
// outage windows; bursty traffic; SetRate (to zero and back), SetDown and
// SetLoss while packets are in flight; and drop and deliver hooks that
// re-send on the link that called them.
func runPipeScenario(seed int64, send func(*Link, *Packet)) pipeOutcome {
	const horizon = sim.Time(2 * time.Second)
	r := rand.New(rand.NewSource(seed))
	s := sim.NewScheduler(uint64(seed))
	nw := New(s)
	src := nw.NewNode("src", MustParseAddr("10.0.0.1"))
	dst := nw.NewNode("dst", MustParseAddr("10.0.0.2"))
	dst.Bind(ProtoUDP, 9, func(*Packet) {})

	var out pipeOutcome
	var nextID uint64
	resends := 0
	newPacket := func(to *Node) *Packet {
		nextID++
		pkt := nw.NewPacket()
		pkt.ID, pkt.Src, pkt.Dst = nextID, src.Addr(), to.Addr()
		pkt.Proto, pkt.DstPort, pkt.TTL = ProtoUDP, 9, DefaultTTL
		pkt.Size = 40 + r.Intn(1460)
		return pkt
	}

	randomConfig := func(name string) LinkConfig {
		var cfg LinkConfig
		base := time.Duration(1+r.Intn(30)) * time.Millisecond
		switch r.Intn(3) {
		case 0:
			cfg.Delay = ConstantDelay(base)
		case 1: // a cliff: the path shortens while packets are in flight
			cliff := sim.Time(r.Int63n(int64(horizon)))
			cfg.Delay = func(now sim.Time) time.Duration {
				if now >= cliff {
					return base / 4
				}
				return base
			}
		}
		if r.Intn(3) > 0 {
			cfg.RateBps = 2e5 * float64(1+r.Intn(100))
		}
		if r.Intn(2) == 0 {
			cfg.QueueBytes = 3000 + r.Intn(30000)
		}
		if r.Intn(2) == 0 {
			rng := s.RNG().Stream("jitter/" + name)
			cfg.Jitter = func(sim.Time) time.Duration { return time.Duration(rng.Float64() * float64(8*time.Millisecond)) }
		}
		if r.Intn(2) == 0 {
			cfg.Loss = &GilbertElliott{PGB: 0.05, PBG: 0.3, LossGood: 0.01, LossBad: 0.5, Rng: s.RNG().Stream("loss/" + name)}
		}
		if r.Intn(2) == 0 {
			cfg.Down = PoissonOutages(s.RNG().Stream("down/"+name), horizon, 300*time.Millisecond, 40*time.Millisecond).Down
		}
		return cfg
	}

	var links []*Link
	hook := func(i int) {
		l := links[i]
		l.DropHook = func(now sim.Time, pkt *Packet, reason DropReason) {
			out.log = append(out.log, pipeRecord{now, pkt.ID, i, int(reason)})
			if pkt.ID%5 == 0 && resends < 400 {
				resends++
				send(l, newPacket(l.to))
			}
		}
		l.DeliverHook = func(now sim.Time, pkt *Packet) {
			out.log = append(out.log, pipeRecord{now, pkt.ID, i, -1})
			if pkt.ID%7 == 0 && resends < 400 {
				resends++
				send(l, newPacket(l.to))
			}
		}
	}
	for i := 0; i < 5; i++ {
		links = append(links, nw.AddLink(src, dst, randomConfig(fmt.Sprint("l", i))))
		hook(i)
	}

	// Bursts of back-to-back sends fill queues past their caps; between
	// them, mutators change a link under the packets it is carrying.
	for at := sim.Time(0); at < horizon; at += sim.Time(r.Int63n(int64(12 * time.Millisecond))) {
		l := links[r.Intn(len(links))]
		switch n := r.Intn(12); {
		case n == 0:
			rate := 2e5 * float64(r.Intn(50)) // zero in one draw of fifty
			if r.Intn(4) == 0 {
				rate = 0
			}
			s.At(at, func() { l.SetRate(rate) })
		case n == 1:
			down := r.Intn(2) == 0
			s.At(at, func() { l.SetDown(func(sim.Time) bool { return down }) })
		case n == 2:
			s.At(at, func() { l.SetLoss(nil) })
		default:
			burst := 1 + r.Intn(40)
			s.At(at, func() {
				for k := 0; k < burst; k++ {
					send(l, newPacket(l.to))
				}
			})
		}
	}
	s.RunUntil(horizon + sim.Time(time.Second))

	for _, l := range links {
		out.stats = append(out.stats, l.Stats())
	}
	out.processed = s.Processed
	return out
}

// The link pipe must be indistinguishable from per-packet timers: the same
// deliveries and drops at the same instants in the same order, the same
// link counters, and the same number of scheduler events.
func TestPipeMatchesPerPacketTimers(t *testing.T) {
	delivered := 0
	var dropped [3]int // by reason: queue-full, medium, outage
	for seed := int64(1); seed <= 40; seed++ {
		want := runPipeScenario(seed, oracleSend)
		got := runPipeScenario(seed, pipeSend)
		if got.processed != want.processed {
			t.Errorf("seed %d: Scheduler.Processed = %v, per-packet timers ran %v", seed, got.processed, want.processed)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("seed %d: LinkStats differ:\n pipe   %+v\n oracle %+v", seed, got.stats, want.stats)
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d outcomes, per-packet timers produced %d", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: outcome %d = %+v, per-packet timers gave %+v", seed, i, got.log[i], want.log[i])
			}
		}
		for _, rec := range want.log {
			if rec.reason < 0 {
				delivered++
			} else {
				dropped[rec.reason]++
			}
		}
	}
	// The scenario has to reach what it claims to cover.
	if delivered < 10000 || dropped[DropQueueFull] < 500 || dropped[DropMedium] < 500 || dropped[DropOutage] < 500 {
		t.Errorf("weak scenario: %d deliveries, drops by reason %v", delivered, dropped)
	}
}

// After SetRate(0) on a link with a serialization backlog the next packets
// have no serialization hop: they go straight to the propagation ring and
// overtake the backlog, exactly as their own timers would have.
func TestPipeRateZeroOvertakesBacklog(t *testing.T) {
	for _, send := range []func(*Link, *Packet){oracleSend, pipeSend} {
		s := sim.NewScheduler(1)
		nw := New(s)
		a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
		b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
		b.Bind(ProtoUDP, 9, func(*Packet) {})
		l := nw.AddLink(a, b, LinkConfig{RateBps: 8e4}) // 1000 B = 100 ms
		var order []uint64
		l.DeliverHook = func(_ sim.Time, pkt *Packet) { order = append(order, pkt.ID) }
		mk := func(id uint64) *Packet {
			pkt := nw.NewPacket()
			pkt.ID, pkt.Dst, pkt.Proto, pkt.DstPort, pkt.Size, pkt.TTL = id, b.Addr(), ProtoUDP, 9, 1000, DefaultTTL
			return pkt
		}
		for id := uint64(1); id <= 3; id++ {
			send(l, mk(id))
		}
		s.At(sim.Time(150*time.Millisecond), func() { // 1 is out, 2 and 3 are queued
			l.SetRate(0)
			send(l, mk(4))
			send(l, mk(5))
		})
		s.Run()
		if want := []uint64{1, 4, 5, 2, 3}; !reflect.DeepEqual(order, want) {
			t.Errorf("delivery order %v, want %v", order, want)
		}
		if s.Processed != 9 { // 3 packets x 2 hops + 2 x 1 hop + the SetRate event
			t.Errorf("Processed = %d, want 9", s.Processed)
		}
	}
}

// The structural gate behind the speed-up, independent of any clock: a
// thousand packets in flight on a rated, delayed link occupy two timers.
func TestPipeHoldsTwoTimersPerLink(t *testing.T) {
	s := sim.NewScheduler(1)
	nw := New(s)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	b.Bind(ProtoUDP, 9, func(*Packet) {})
	l := nw.AddLink(a, b, LinkConfig{RateBps: 1e8, Delay: ConstantDelay(300 * time.Millisecond)})
	a.AddRoute(b.Addr(), l)
	for i := 0; i < 1000; i++ {
		pkt := nw.NewPacket()
		pkt.Dst, pkt.Proto, pkt.DstPort, pkt.Size = b.Addr(), ProtoUDP, 9, 1250
		a.Send(pkt)
	}
	// 0.1 ms per packet: at 50 ms half are propagating, half still queued.
	for _, at := range []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond} {
		s.RunUntil(sim.Time(at))
		if got := s.Pending(); got > 2 {
			t.Errorf("t=%v: %d timers pending for one link, want <= 2", at, got)
		}
	}
	if peak := s.QueuePeak(); peak > 2 {
		t.Errorf("QueuePeak = %d, want <= 2", peak)
	}
	s.Run()
	if st := l.Stats(); st.Delivered != 1000 {
		t.Errorf("delivered %d of 1000", st.Delivered)
	}
}

// fleet_scale builds ~100 k links per iteration and AddLink is a third of
// its allocated bytes: Link sits in the 208-byte size class, two words more
// move it to the 224-byte one (+1.6 % alloc_mb_per_iter) and embedded
// rings (280 B, 288-byte class) cost the workload +10 % against a 3 %
// bound. In-flight state hangs off the single lazily allocated pipe
// pointer instead.
func TestLinkStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Link{}); size > 200 {
		t.Errorf("sizeof(Link) = %d, want <= 200", size)
	}
}

// --- the ring itself -------------------------------------------------------

// FuzzPktRing checks push/pop against a slice model across wrap-around and
// growth. The occasional early key — an instant before the tail's, which
// no hop hands out — has to be refused and leave the ring as it was.
func FuzzPktRing(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0})
	f.Add([]byte{9, 9, 9, 9, 2, 0, 9, 4, 9, 8, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var r pktRing
		var model []pipeSlot
		var seq uint64
		at := sim.Time(0)
		for _, op := range ops {
			if op == 0 {
				if len(model) == 0 {
					continue
				}
				want := model[0]
				model = model[1:]
				if head := r.buf[r.head]; head.at != want.at || head.seq != want.seq {
					t.Fatalf("head key (%d,%d), model has (%d,%d)", head.at, head.seq, want.at, want.seq)
				}
				if got := r.pop(); got != want.pkt {
					t.Fatalf("pop returned the wrong packet")
				}
				continue
			}
			// Mostly no earlier than everything queued; op%4 == 0 aims at
			// the head's instant, early whenever the tail is later.
			slot := pipeSlot{at: at + sim.Time(op%8), seq: seq, pkt: &Packet{ID: seq}}
			if op%4 == 0 && len(model) > 0 {
				slot.at = model[0].at + sim.Time(op%3)
			}
			seq++
			early := len(model) > 0 && slot.at < model[len(model)-1].at
			if ok := r.push(slot); ok == early {
				t.Fatalf("push of at=%d behind tail at=%d returned %v", slot.at, at, ok)
			}
			if !early {
				model = append(model, slot)
				at = slot.at
			}
		}
		if r.n != len(model) {
			t.Fatalf("ring holds %d, model %d", r.n, len(model))
		}
		if n := len(r.buf); n&(n-1) != 0 {
			t.Fatalf("ring capacity %d is not a power of two", n)
		}
		for _, want := range model {
			if got := r.pop(); got != want.pkt {
				t.Fatalf("drain order diverges from the model")
			}
		}
	})
}

// A hop that hands enqueue an instant before its last one is a broken
// FIFO invariant; the panic names the link.
func TestPipeEnqueueBackwardsPanics(t *testing.T) {
	s := sim.NewScheduler(1)
	nw := New(s)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	l := nw.AddLink(a, b, LinkConfig{})
	l.enqueue(&l.pipes().prop, sim.Time(20), nw.NewPacket(), linkDeliver)
	l.enqueue(&l.pipes().prop, sim.Time(20), nw.NewPacket(), linkDeliver) // ties are in order
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, l.Name()) || !strings.Contains(msg, "t=19") {
			t.Errorf("panic %q does not name link %q and the instant", msg, l.Name())
		}
		if n := l.pipe.prop.n; n != 2 {
			t.Errorf("ring holds %d after the refused push, want 2", n)
		}
	}()
	l.enqueue(&l.pipes().prop, sim.Time(19), nw.NewPacket(), linkDeliver)
	t.Error("enqueue accepted an instant before the tail's")
}
