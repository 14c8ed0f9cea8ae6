package tcpsim

import (
	"runtime"
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/netem/netemtest"
	"starlinkperf/internal/sim"
)

// allocBulk starts an endless client->server bulk transfer over a
// rate-limited two-node path that loses two packets in a thousand each way
// on top of what its DropTail queue sheds, and runs it past slow start and
// receive-window autotuning. From here on every segment walks the whole
// cycle — drawn from the network's segment pool, recorded in the in-flight
// ring, queued, delivered, entered into the receiver's scoreboard,
// acknowledged (with SACK blocks while a hole is open), its record popped
// and the segment released — and every few hundred segments one is lost,
// SACKed around and retransmitted.
func allocBulk(tb testing.TB) (run func(), client *Conn, delivered *uint64) {
	tb.Helper()
	s := sim.NewScheduler(31)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	ab, ba := nw.Connect(a, b, netem.LinkConfig{
		RateBps:    50e6,
		Delay:      netem.ConstantDelay(10 * time.Millisecond),
		QueueBytes: 64 << 10,
		Loss:       &netem.BernoulliLoss{P: 0.002, Rng: s.RNG().Stream("loss")},
	})
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)

	cfg := DefaultConfig()
	cfg.TLSRounds = 0
	delivered = new(uint64)
	Listen(b, 80, cfg, func(c *Conn) {
		c.OnData = func(n int, _ bool) { *delivered += uint64(n) }
	})
	client = Dial(a, b.Addr(), 80, cfg)
	client.OnEstablished = func() { client.Write(1 << 40) }
	// Warm the segment pool, the in-flight ring, the three scoreboards and
	// the packet pool past their steady-state high-water marks.
	s.RunFor(20 * time.Second)
	if client.Stats.FastRetransmits == 0 {
		tb.Fatal("warm-up saw no loss: the path does not exercise SACK recovery")
	}
	return func() { s.RunFor(100 * time.Millisecond) }, client, delivered
}

// The steady-state TCP datapath must not allocate per segment: not for the
// segment, not for its in-flight record, not for the scoreboards on either
// side, with losses and retransmissions inside the measured window.
func TestAllocGateBulkTransfer(t *testing.T) {
	run, client, delivered := allocBulk(t)

	st0, bytes0 := client.Stats, *delivered
	const runs = 50
	perRun := testing.AllocsPerRun(runs, run)
	// AllocsPerRun makes one warm-up call on top of the counted ones.
	segments := float64(client.Stats.SegmentsSent-st0.SegmentsSent) / (runs + 1)
	if segments < 100 || *delivered-bytes0 < 1e6 {
		t.Fatalf("transfer stalled: %.0f segments per run, %d bytes delivered", segments, *delivered-bytes0)
	}
	if client.Stats.FastRetransmits == st0.FastRetransmits {
		t.Fatal("no loss inside the measured window: the SACK and retransmission paths did not run")
	}
	t.Logf("%.2f allocs per 100 ms of %.0f data segments (%d fast retransmits, %d RTOs in the window): %.4f per segment",
		perRun, segments, client.Stats.FastRetransmits-st0.FastRetransmits, client.Stats.RTOs-st0.RTOs, perRun/segments)
	// Measured: 0. The ceiling leaves room for a backing array that
	// doubles inside the window, not for one allocation per segment.
	if perSeg := perRun / segments; perSeg > 0.01 {
		t.Errorf("%.3f allocs per data segment, want 0", perSeg)
	}
}

// BenchmarkBulkTransferSegment reports the steady-state cost of the cycle
// per 100 ms of simulated transfer (~160 data segments and their ACKs).
func BenchmarkBulkTransferSegment(b *testing.B) {
	run, _, _ := allocBulk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// The segment pool's lifecycle guards: a segment is poisoned while it sits
// in the freelist and zeroed when drawn again (keeping its Sack and Msgs
// backing); a second release and a release of a literal are inert;
// connections on one network share one pool, and a connection without a
// node has none.
func TestSegmentPoolLifecycle(t *testing.T) {
	s := sim.NewScheduler(1)
	nw := netem.New(s)
	node := nw.NewNode("n", netem.MustParseAddr("10.0.0.1"))
	conn := func(n *netem.Node) *Conn {
		return NewConn(ConnParams{Sched: s, Node: n, Transmit: func(*netem.Packet) {}})
	}
	c1, c2 := conn(node), conn(node)
	if c1.pool == nil || c1.pool != c2.pool {
		t.Fatal("two connections on one network do not share its segment pool")
	}

	seg := c1.newSegment()
	seg.Flags, seg.Seq, seg.Len, seg.Ack = FlagACK, 1000, 1460, 7
	seg.Sack = append(seg.Sack, SackBlock{Start: 1, End: 2})
	seg.Msgs = append(seg.Msgs, AppMsg{Off: 1000, Msg: "x"})
	seg.ReleasePayload()
	if seg.Seq != poisonSeq || seg.Ack != poisonSeq || seg.Len >= 0 || seg.Flags&(FlagSYN|FlagACK|FlagFIN|FlagRST) != 0 {
		t.Errorf("a segment in the freelist reads as plausible: %+v", seg)
	}
	if msgs := seg.Msgs[:1]; msgs[0].Msg != nil {
		t.Error("released segment still references its application message")
	}
	seg.ReleasePayload() // double release
	if st := c1.pool.Stats(); st.Gets != 1 || st.Puts != 1 || len(c1.pool.All()) != 1 {
		t.Fatalf("after a double release: %+v, %d in the freelist", st, len(c1.pool.All()))
	}

	again := c2.newSegment()
	if again != seg {
		t.Fatal("the second connection did not draw the segment the first released")
	}
	if again.Flags != 0 || again.Seq != 0 || again.Len != 0 || again.Ack != 0 || len(again.Sack) != 0 || len(again.Msgs) != 0 || again.pooled {
		t.Errorf("recycled segment is not zeroed: %+v", again)
	}
	if cap(again.Sack) == 0 || cap(again.Msgs) == 0 {
		t.Error("recycled segment lost its Sack/Msgs backing arrays")
	}

	again.ReleasePayload()
	(&Segment{}).ReleasePayload()
	if st := c1.pool.Stats(); st.Gets != 2 || st.Hits != 1 || st.Puts != 2 || len(c1.pool.All()) != 1 {
		t.Errorf("a literal segment entered the pool or a drawn one stayed out: %+v, %d in the freelist", st, len(c1.pool.All()))
	}

	if ls := conn(nil).newSegment(); ls.owner != nil {
		t.Error("a connection without a node pools its segments")
	}
}

// A connection's in-flight ring outlives it: torn down, the connection
// hands the ring back to its network's pool emptied, and the next one dialed
// there takes it, so pushing as many records as the first ever held grows
// no array. A network in no-recycle mode never hands one on.
func TestAllocGateRingOutlivesItsConnection(t *testing.T) {
	for _, recycle := range []bool{true, false} {
		s, a, b := pairNet(t, netem.LinkConfig{
			RateBps: 50e6, Delay: netem.ConstantDelay(20 * time.Millisecond), QueueBytes: 256 << 10,
		})
		if !recycle {
			a.Network().DisableRecycling()
		}
		cfg := DefaultConfig()
		cfg.TLSRounds = 0
		// The server resets the connection once the upload is in, so the
		// client tears down last and its ring is the one the pool lends next.
		Listen(b, 80, cfg, func(sc *Conn) {
			sc.OnData = func(_ int, fin bool) {
				if fin {
					sc.Abort()
				}
			}
		})
		first := Dial(a, b.Addr(), 80, cfg)
		ring, held := first.inflight, 0
		first.OnEstablished = func() {
			first.Write(1 << 20)
			first.Close()
		}
		for _, l := range a.Network().Links() {
			l.DeliverHook = func(sim.Time, *netem.Packet) {
				if first.inflight != nil {
					held = max(held, first.inflight.Len())
				}
			}
		}
		s.RunFor(30 * time.Second)
		if first.State() != StateClosed || first.inflight != nil {
			t.Fatalf("recycle=%v: first connection still holds its ring (state %v)", recycle, first.State())
		}
		if held < 16 {
			t.Fatalf("recycle=%v: the first connection never had more than %d records in flight", recycle, held)
		}
		if err := netemtest.CheckPools(a.Network()); recycle && err != nil {
			t.Fatalf("both ends closed: %v", err)
		}

		second := Dial(a, b.Addr(), 80, cfg)
		if got := second.inflight == ring; got != recycle {
			t.Fatalf("recycle=%v: second connection took the first one's ring: %v", recycle, got)
		}
		if n := second.inflight.Len(); n != 0 {
			t.Fatalf("recycle=%v: a new connection starts with %d records in flight", recycle, n)
		}
		grow := mallocs(func() {
			for range held {
				second.inflight.Push(txRecord{})
			}
		})
		if recycle && grow != 0 {
			t.Errorf("%v allocs pushing %d records into a reused ring, want 0", grow, held)
		}
		if !recycle && grow == 0 {
			t.Errorf("pushing %d records into a ring on a no-recycle network allocated nothing: it was reused", held)
		}
		if st := second.pool.rings.Stats(); recycle && (st.Gets != 3 || st.Hits != 1 || st.Puts != 2) || !recycle && (st.Hits != 0 || st.Puts != 0) {
			t.Errorf("recycle=%v: ring pool %+v", recycle, st)
		}
	}
}

// mallocs counts the heap allocations of one call of f, the first one
// included (testing.AllocsPerRun discards it as a warm-up).
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// A network that inherits another's pools (netem.Network.Inherit) takes
// its listed segments, Sack and Msgs arrays kept, and its listed rings;
// a segment the old network still held at the handover goes home to the
// old pool when released, never to the new one.
func TestInheritedSegmentPool(t *testing.T) {
	s := sim.NewScheduler(1)
	oldNw, nw := netem.New(s), netem.New(s)
	conn := func(nw *netem.Network) *Conn {
		return NewConn(ConnParams{Sched: s, Node: nw.NewNode("n", netem.MustParseAddr("10.0.0.1")), Transmit: func(*netem.Packet) {}})
	}
	c := conn(oldNw)
	held, listed := c.newSegment(), c.newSegment()
	listed.Sack = append(listed.Sack, SackBlock{Start: 1, End: 2})
	listed.ReleasePayload()
	ring := new(sim.Ring[txRecord])
	c.pool.putRing(ring)
	before := c.pool.Stats()

	nw.Inherit(oldNw)
	held.ReleasePayload()
	if held.owner != c.pool || len(c.pool.All()) != 1 {
		t.Fatal("a segment held at the handover did not go home to the old pool")
	}
	if st := c.pool.Stats(); st.Puts != before.Puts+1 || st.Gets != before.Gets {
		t.Errorf("old pool counters %+v after the late release, were %+v", st, before)
	}
	c2 := conn(nw)
	if c2.pool == c.pool {
		t.Fatal("the new network shares the old network's pool")
	}
	if c2.inflight != ring {
		t.Error("the new network's first connection did not take the inherited ring")
	}
	if got := c2.newSegment(); got != listed || got.owner != c2.pool || cap(got.Sack) == 0 {
		t.Error("the new network's first segment is not the listed one, re-owned with its Sack array")
	}
	if st := c2.pool.Stats(); st != (sim.PoolStats{Gets: 1, Hits: 1}) {
		t.Errorf("new pool counters %+v, want one Get, a Hit", st)
	}
}
