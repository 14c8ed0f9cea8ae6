package netem

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// --- the per-packet-timer oracle ------------------------------------------
//
// What the datapath did before the link pipe: every packet in flight is its
// own scheduler timer, one per event — the end of its serialization on a
// rated link, then its arrival — each armed as soon as its instant is
// known. It shares admit, leaveQueue, transmit and deliver with the
// production path, so the only thing under test is how events are queued:
// pipe.go must fire them in this order exactly.
//
// The oracle also works out, from its own events, which packets the pipe
// carries in one event: rated, admitted onto a link with no loss process,
// outage predicate, jitter or observer and with no two-event packet still
// serializing, and not touched by a mutator before their serialization
// ended. Such a packet's arrival is known at admit, so its key is reserved
// there, and the pipe must run exactly one event fewer for it.

type oracle struct {
	links map[*Link]*oracleLink
	// oneEvent counts the delivered packets the pipe carried in one event;
	// unheld counts those a mutator turned back into two-event packets.
	oneEvent, unheld int
}

// oracleLink is one link's serializing packets: those still on course for
// one event, in admit order, and how many take two.
type oracleLink struct {
	held     []*oracleEvent
	twoEvent int
}

type oracleEvent struct {
	o        *oracle
	link     *Link
	pkt      *Packet
	arrSeq   uint64
	oneEvent bool
}

func newOracle() *oracle { return &oracle{links: map[*Link]*oracleLink{}} }

func (o *oracle) link(l *Link) *oracleLink {
	if o.links[l] == nil {
		o.links[l] = &oracleLink{}
	}
	return o.links[l]
}

func (o *oracle) send(l *Link, pkt *Packet) {
	s := l.net.sched
	txDone, ok := l.admit(pkt)
	if !ok {
		return
	}
	ev := &oracleEvent{o: o, link: l, pkt: pkt}
	if l.cfg.RateBps <= 0 {
		if arrival, ok := l.transmit(pkt); ok {
			s.AtFunc(arrival, oracleDeliver, ev)
		}
		return
	}
	ol := o.link(l)
	ev.oneEvent = l.cfg.Loss == nil && l.cfg.Down == nil && l.cfg.Jitter == nil && l.obs == nil && ol.twoEvent == 0
	s.AtFunc(txDone, oracleTxDone, ev)
	if ev.oneEvent {
		ev.arrSeq = s.ReserveSeq()
		ol.held = append(ol.held, ev)
	} else {
		ol.twoEvent++
	}
}

// mutated runs after every SetRate, SetLoss and SetDown: the packets on
// course for one event whose serialization has not ended take two.
func (o *oracle) mutated(l *Link) {
	ol := o.link(l)
	for _, ev := range ol.held {
		ev.oneEvent = false
	}
	o.unheld += len(ol.held)
	ol.twoEvent += len(ol.held)
	ol.held = ol.held[:0]
}

func oracleTxDone(arg any) {
	ev := arg.(*oracleEvent)
	l, ol := ev.link, ev.o.links[ev.link]
	if ev.oneEvent {
		ol.held = ol.held[1:]
	} else {
		ol.twoEvent--
	}
	l.leaveQueue(ev.pkt)
	arrival, ok := l.transmit(ev.pkt)
	switch {
	case !ok:
	case ev.oneEvent:
		l.net.sched.AtFuncSeq(arrival, ev.arrSeq, oracleDeliver, ev)
	default:
		l.net.sched.AtFunc(arrival, oracleDeliver, ev)
	}
}

func oracleDeliver(arg any) {
	ev := arg.(*oracleEvent)
	if ev.oneEvent {
		ev.o.oneEvent++
	}
	ev.link.deliver(ev.pkt)
}

// datapath is what a scenario drives: the pipe, or the oracle.
type datapath interface {
	send(l *Link, pkt *Packet)
	mutated(l *Link)
}

type pipePath struct{}

func (pipePath) send(l *Link, pkt *Packet) { l.send(pkt) }
func (pipePath) mutated(*Link)             {}

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

// pipeWorld varies runPipeScenario. ties puts every rate, size, delay,
// jitter, cliff and burst on a whole-microsecond grid, so that keys tie at
// one instant all the time and their order rests on the sequence numbers
// alone. observe attaches an observer before any traffic, which gives every
// rated packet its serialization-end event.
type pipeWorld struct{ ties, observe bool }

// runPipeScenario drives one seeded world through dp: five links out of a
// single source, each with its own mix of rate, queue cap, jitter, delay
// cliff, Gilbert-Elliott loss and outage windows, a third of the rated
// ones with none of the last three; bursty traffic; SetRate (to zero and
// back), SetDown and SetLoss (on and off) while packets are serializing;
// and drop and deliver hooks that re-send on the link that called them.
func runPipeScenario(seed int64, dp datapath, w pipeWorld) pipeOutcome {
	const horizon = sim.Time(2 * time.Second)
	r := rand.New(rand.NewSource(seed))
	s := sim.NewScheduler(uint64(seed))
	nw := New(s)
	if w.observe {
		nw.Observe(obs.NewSink(0))
	}
	src := nw.NewNode("src", MustParseAddr("10.0.0.1"))
	dst := nw.NewNode("dst", MustParseAddr("10.0.0.2"))
	dst.Bind(ProtoUDP, 9, func(*Packet) {})

	// grid rounds a duration down to the millisecond in a world of ties.
	grid := func(d time.Duration) time.Duration {
		if w.ties {
			return d.Truncate(time.Millisecond)
		}
		return d
	}
	var out pipeOutcome
	var nextID uint64
	resends := 0
	newPacket := func(to *Node) *Packet {
		nextID++
		pkt := nw.NewPacket()
		pkt.ID, pkt.Src, pkt.Dst = nextID, src.Addr(), to.Addr()
		pkt.Proto, pkt.DstPort, pkt.TTL = ProtoUDP, 9, DefaultTTL
		pkt.Size = 40 + r.Intn(1460)
		if w.ties { // 1000 bits a unit: whole microseconds at every rate below
			pkt.Size = 125 * (1 + r.Intn(12))
		}
		return pkt
	}
	newRate := func() float64 {
		if w.ties {
			return []float64{1e6, 2e6, 4e6, 5e6, 8e6, 1e7, 2e7, 4e7}[r.Intn(8)]
		}
		return 2e5 * float64(1+r.Intn(100))
	}
	newLoss := func(name string) LossModel {
		return &GilbertElliott{PGB: 0.05, PBG: 0.3, LossGood: 0.01, LossBad: 0.5, Rng: s.RNG().Stream("loss/" + name)}
	}

	randomConfig := func(name string) LinkConfig {
		var cfg LinkConfig
		base := time.Duration(1+r.Intn(30)) * time.Millisecond
		switch r.Intn(3) {
		case 0:
			cfg.Delay = ConstantDelay(base)
		case 1: // a cliff: the path shortens while packets are in flight
			cliff := sim.Time(grid(time.Duration(r.Int63n(int64(horizon)))))
			cfg.Delay = func(now sim.Time) time.Duration {
				if now >= cliff {
					return base / 4
				}
				return base
			}
		}
		if r.Intn(3) > 0 {
			cfg.RateBps = newRate()
		}
		if r.Intn(2) == 0 {
			cfg.QueueBytes = 3000 + r.Intn(30000)
		}
		if cfg.RateBps > 0 && r.Intn(3) == 0 {
			return cfg // nothing to decide at the end of serialization
		}
		if r.Intn(2) == 0 {
			rng := s.RNG().Stream("jitter/" + name)
			cfg.Jitter = func(sim.Time) time.Duration { return grid(time.Duration(rng.Float64() * float64(8*time.Millisecond))) }
		}
		if r.Intn(2) == 0 {
			cfg.Loss = newLoss(name)
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
				dp.send(l, newPacket(l.to))
			}
		}
		l.DeliverHook = func(now sim.Time, pkt *Packet) {
			out.log = append(out.log, pipeRecord{now, pkt.ID, i, -1})
			if pkt.ID%7 == 0 && resends < 400 {
				resends++
				dp.send(l, newPacket(l.to))
			}
		}
	}
	for i := 0; i < 5; i++ {
		links = append(links, nw.AddLink(src, dst, randomConfig(fmt.Sprint("l", i))))
		hook(i)
	}

	// Bursts of back-to-back sends fill queues past their caps; between
	// them, mutators change a link under the packets it is carrying.
	mutate := func(at sim.Time, l *Link, set func()) {
		s.At(at, func() {
			set()
			dp.mutated(l)
		})
	}
	for at := sim.Time(0); at < horizon; at += sim.Time(grid(time.Duration(r.Int63n(int64(12 * time.Millisecond))))) {
		l := links[r.Intn(len(links))]
		switch n := r.Intn(14); {
		case n == 0:
			rate := newRate()
			if r.Intn(4) == 0 {
				rate = 0
			}
			mutate(at, l, func() { l.SetRate(rate) })
		case n == 1:
			down := r.Intn(2) == 0
			mutate(at, l, func() { l.SetDown(func(sim.Time) bool { return down }) })
		case n == 2:
			mutate(at, l, func() { l.SetLoss(nil) })
		case n == 3:
			mutate(at, l, func() { l.SetDown(nil) })
		case n == 4 && r.Intn(3) == 0:
			loss := newLoss(fmt.Sprint("set", at))
			mutate(at, l, func() { l.SetLoss(loss) })
		default:
			burst := 1 + r.Intn(40)
			s.At(at, func() {
				for k := 0; k < burst; k++ {
					dp.send(l, newPacket(l.to))
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

// samePipeOutcome fails t unless got has the deliveries, drops and link
// counters of want, in the same order at the same instants.
func samePipeOutcome(t testing.TB, what string, got, want pipeOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s: LinkStats differ:\n got  %+v\n want %+v", what, got.stats, want.stats)
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("%s: %d outcomes, want %d", what, len(got.log), len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("%s: outcome %d = %+v, want %+v", what, i, got.log[i], want.log[i])
		}
	}
}

// checkPipeScenario runs one world through the oracle and the pipe and
// holds the pipe to the oracle, events included: one fewer per packet that
// took its link in one event. It returns the oracle's run.
func checkPipeScenario(t testing.TB, seed int64, w pipeWorld) (pipeOutcome, *oracle) {
	t.Helper()
	o := newOracle()
	want := runPipeScenario(seed, o, w)
	got := runPipeScenario(seed, pipePath{}, w)
	samePipeOutcome(t, fmt.Sprintf("seed %d %+v: pipe against per-packet timers", seed, w), got, want)
	if got.processed != want.processed-uint64(o.oneEvent) {
		t.Errorf("seed %d %+v: Scheduler.Processed = %d, per-packet timers ran %d of which %d end-of-serialization events the pipe needs not fire",
			seed, w, got.processed, want.processed, o.oneEvent)
	}
	return want, o
}

// The link pipe must be indistinguishable from per-packet timers: the same
// deliveries and drops at the same instants in the same order, the same
// link counters, and the same scheduler events bar the serialization ends
// nothing had to decide.
func TestPipeMatchesPerPacketTimers(t *testing.T) {
	delivered, oneEvent, unheld := 0, 0, 0
	var dropped [3]int // by reason: queue-full, medium, outage
	for seed := int64(1); seed <= 40; seed++ {
		want, o := checkPipeScenario(t, seed, pipeWorld{})
		oneEvent += o.oneEvent
		unheld += o.unheld
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
	if oneEvent < 2000 || unheld < 200 {
		t.Errorf("weak scenario: %d packets in one event, %d turned back by a mutator", oneEvent, unheld)
	}
}

// The same on a grid of whole microseconds, where end-of-serialization
// keys, arrivals, bursts and mutators meet at one instant all the time:
// which fires first is the sequence numbers' call alone, and the pipe must
// make it as the per-packet timers do.
func TestPipeForcedTies(t *testing.T) {
	oneEvent := 0
	for seed := int64(1); seed <= 40; seed++ {
		_, o := checkPipeScenario(t, seed, pipeWorld{ties: true})
		oneEvent += o.oneEvent
	}
	if oneEvent < 2000 {
		t.Errorf("weak scenario: %d packets in one event", oneEvent)
	}
}

// An observed link traces every dequeue, so each of its rated packets fires
// its serialization end and arms its arrival there, as every packet did
// before the one-event form: the observed pipe must match per-packet timers
// that give no packet one event. Away from exact ties it also delivers
// what the unobserved pipe does.
func TestPipeObservedFiresInOneOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, ties := range []bool{false, true} {
			w := pipeWorld{ties: ties, observe: true}
			o := newOracle()
			want := runPipeScenario(seed, o, w)
			got := runPipeScenario(seed, pipePath{}, w)
			samePipeOutcome(t, fmt.Sprintf("seed %d %+v: observed pipe against per-packet timers", seed, w), got, want)
			if got.processed != want.processed || o.oneEvent != 0 {
				t.Errorf("seed %d %+v: observed pipe ran %d events, per-packet timers %d with %d in one event", seed, w, got.processed, want.processed, o.oneEvent)
			}
			if !ties {
				plain := runPipeScenario(seed, pipePath{}, pipeWorld{})
				samePipeOutcome(t, fmt.Sprintf("seed %d: observed against unobserved pipe", seed), got, plain)
			}
		}
	}
}

// FuzzLinkPipe holds the pipe to the per-packet timers on any scenario
// seed, with and without the whole-microsecond grid.
func FuzzLinkPipe(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(7), true)
	f.Fuzz(func(t *testing.T, seed int64, ties bool) {
		checkPipeScenario(t, seed, pipeWorld{ties: ties})
	})
}

// The key rule, pinned: an arrival takes its sequence number when its
// timer is armed — at admit for a packet that takes its link in one event,
// at the end of serialization for one that takes two. A timer armed while
// the packet serializes, for the instant it arrives, fires after the
// one-event delivery and before the two-event one.
func TestArrivalKeyRule(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		s, nw := testNet(t)
		a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
		b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
		b.Bind(ProtoUDP, 9, func(*Packet) {})
		cfg := LinkConfig{RateBps: 8e6, Delay: ConstantDelay(time.Millisecond)} // 1000 B: 1 ms + 1 ms
		want, events := []string{"delivery", "timer"}, uint64(4)
		if lossy {
			cfg.Loss = &BernoulliLoss{P: 0, Rng: sim.NewRNG(1)}
			want, events = []string{"timer", "delivery"}, 5
		}
		l := nw.AddLink(a, b, cfg)
		var order []string
		l.DeliverHook = func(sim.Time, *Packet) { order = append(order, "delivery") }
		s.At(0, func() { l.send(&Packet{Dst: b.Addr(), Proto: ProtoUDP, DstPort: 9, Size: 1000, TTL: DefaultTTL}) })
		s.At(sim.Time(500*time.Microsecond), func() {
			s.At(sim.Time(2*time.Millisecond), func() { order = append(order, "timer") })
		})
		s.Run()
		if !reflect.DeepEqual(order, want) {
			t.Errorf("lossy=%v: %v at t=2ms, want %v", lossy, order, want)
		}
		// Two setup events and the timer, then the packet's one or two.
		if s.Processed != events {
			t.Errorf("lossy=%v: Processed = %d, want %d", lossy, s.Processed, events)
		}
	}
}

// After SetRate(0) on a link with a serialization backlog the next packets
// have no serialization hop: they go straight to the propagation ring and
// overtake the backlog, exactly as their own timers would have.
func TestPipeRateZeroOvertakesBacklog(t *testing.T) {
	for _, dp := range []datapath{newOracle(), pipePath{}} {
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
			dp.send(l, mk(id))
		}
		s.At(sim.Time(150*time.Millisecond), func() { // 1 is out, 2 and 3 are queued
			l.SetRate(0)
			dp.mutated(l)
			dp.send(l, mk(4))
			dp.send(l, mk(5))
		})
		s.Run()
		if want := []uint64{1, 4, 5, 2, 3}; !reflect.DeepEqual(order, want) {
			t.Errorf("%T: delivery order %v, want %v", dp, order, want)
		}
		// 3 packets x 2 hops + 2 x 1 hop + the SetRate event; packet 1
		// was out before SetRate, so the pipe carried it in one event.
		want := uint64(9)
		if _, pipe := dp.(pipePath); pipe {
			want--
		}
		if s.Processed != want {
			t.Errorf("%T: Processed = %d, want %d", dp, s.Processed, want)
		}
	}
}

// The structural gate behind the speed-up, independent of any clock: a
// thousand packets in flight on a rated, delayed link occupy one timer, and
// two once the link has something to decide at the end of serialization.
func TestPipeHoldsTwoTimersPerLink(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		s := sim.NewScheduler(1)
		nw := New(s)
		a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
		b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
		b.Bind(ProtoUDP, 9, func(*Packet) {})
		cfg := LinkConfig{RateBps: 1e8, Delay: ConstantDelay(300 * time.Millisecond)}
		timers := 1
		if lossy {
			cfg.Loss, timers = &BernoulliLoss{P: 0, Rng: sim.NewRNG(1)}, 2
		}
		l := nw.AddLink(a, b, cfg)
		a.AddRoute(b.Addr(), l)
		for i := 0; i < 1000; i++ {
			pkt := nw.NewPacket()
			pkt.Dst, pkt.Proto, pkt.DstPort, pkt.Size = b.Addr(), ProtoUDP, 9, 1250
			a.Send(pkt)
		}
		// 0.1 ms per packet: at 50 ms half are propagating, half still queued.
		for _, at := range []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond} {
			s.RunUntil(sim.Time(at))
			if got := s.Pending(); got > timers {
				t.Errorf("lossy=%v t=%v: %d timers pending for one link, want <= %d", lossy, at, got, timers)
			}
			if got, want := l.QueuedBytes(), 1250*(1000-int(at/(100*time.Microsecond))); got != max(want, 0) {
				t.Errorf("lossy=%v t=%v: QueuedBytes = %d, want %d", lossy, at, got, max(want, 0))
			}
		}
		if peak := s.QueuePeak(); peak > timers {
			t.Errorf("lossy=%v: QueuePeak = %d, want <= %d", lossy, peak, timers)
		}
		s.Run()
		if st := l.Stats(); st.Delivered != 1000 {
			t.Errorf("lossy=%v: delivered %d of 1000", lossy, st.Delivered)
		}
	}
}

// fleet_scale builds ~100 k links per iteration and AddLink is a third of
// its allocated bytes: Link sits in the 208-byte size class, two words more
// move it to the 224-byte one (+1.6 % alloc_mb_per_iter) and embedded
// rings (280 B, 288-byte class) cost the workload +10 % against a 3 %
// bound. In-flight state hangs off the single lazily allocated pipe
// pointer instead, and what only a rated link needs off one more, so the
// pipe of a link without a rate stays within the 80-byte class it had
// before links had a one-event form.
func TestLinkStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Link{}); size > 200 {
		t.Errorf("sizeof(Link) = %d, want <= 200", size)
	}
	if size := unsafe.Sizeof(linkPipe{}); size > 80 {
		t.Errorf("sizeof(linkPipe) = %d, want <= 80", size)
	}
}

// --- the hop's ring ----------------------------------------------------------

// FuzzPktRing checks a hop's push/pop against a slice model across
// wrap-around and growth. The occasional early key — an instant before the
// tail's, which no hop hands out — has to be refused and leave the hop as
// it was.
func FuzzPktRing(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0})
	f.Add([]byte{9, 9, 9, 9, 2, 0, 9, 4, 9, 8, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var h hop
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
				if head := h.Front(); head.at != want.at || head.seq != want.seq {
					t.Fatalf("head key (%d,%d), model has (%d,%d)", head.at, head.seq, want.at, want.seq)
				}
				if got := h.Pop().pkt; got != want.pkt {
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
			if ok := h.push(slot); ok == early {
				t.Fatalf("push of at=%d behind tail at=%d returned %v", slot.at, at, ok)
			}
			if !early {
				model = append(model, slot)
				at = slot.at
			}
		}
		if h.Len() != len(model) {
			t.Fatalf("hop holds %d, model %d", h.Len(), len(model))
		}
		for _, want := range model {
			if got := h.Pop().pkt; got != want.pkt {
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
		if n := l.pipe.prop.Len(); n != 2 {
			t.Errorf("hop holds %d after the refused push, want 2", n)
		}
	}()
	l.enqueue(&l.pipes().prop, sim.Time(19), nw.NewPacket(), linkDeliver)
	t.Error("enqueue accepted an instant before the tail's")
}

// Observe on a link carrying packets in one event gives those still
// serializing their serialization-end event back: each is traced as it
// leaves the queue, as it would have been on a link observed from the
// start. Packets whose serialization had ended stay as they were.
func TestObserveUnholdsSerializingPackets(t *testing.T) {
	s, nw := testNet(t)
	a := nw.NewNode("a", MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", MustParseAddr("10.0.0.2"))
	b.Bind(ProtoUDP, 9, func(*Packet) {})
	l := nw.AddLink(a, b, LinkConfig{RateBps: 8e6, Delay: ConstantDelay(time.Millisecond)}) // 1000 B = 1 ms
	for i := 0; i < 4; i++ {
		l.send(&Packet{Dst: b.Addr(), Proto: ProtoUDP, DstPort: 9, Size: 1000, TTL: DefaultTTL})
	}
	sink := obs.NewSink(0)
	s.At(sim.Time(2500*time.Microsecond), func() { nw.Observe(sink) }) // 1 and 2 are out, 3 and 4 serialize
	s.Run()
	var dequeues []sim.Time
	for _, ev := range sink.Tracer().Events() {
		if ev.Kind == obs.KindDequeue {
			dequeues = append(dequeues, ev.At)
		}
	}
	if want := []sim.Time{sim.Time(3 * time.Millisecond), sim.Time(4 * time.Millisecond)}; !reflect.DeepEqual(dequeues, want) {
		t.Errorf("dequeues traced at %v, want %v", dequeues, want)
	}
	// The Observe event, four arrivals and the two serialization ends.
	if s.Processed != 7 || l.Stats().Delivered != 4 || l.QueuedBytes() != 0 {
		t.Errorf("Processed = %d, stats %+v, QueuedBytes %d", s.Processed, l.Stats(), l.QueuedBytes())
	}
}
