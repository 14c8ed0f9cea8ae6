package measure

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
)

// starTarget is one target of star: its name, its one-way delay from the
// prober, and whether it answers echoes (one that does not swallows them
// silently, a black hole).
type starTarget struct {
	name    string
	oneWay  time.Duration
	answers bool
}

// star builds a prober node with one two-node path per target and returns
// the targets' addresses in order and their names by address.
func star(seed uint64, targets ...starTarget) (*sim.Scheduler, *Prober, []netem.Addr, map[netem.Addr]string) {
	s := sim.NewScheduler(seed)
	nw := netem.New(s)
	a := nw.NewNode("a", netem.MustParseAddr("10.0.0.1"))
	var addrs []netem.Addr
	names := make(map[netem.Addr]string)
	for i, tg := range targets {
		b := nw.NewNode(tg.name, netem.MustParseAddr(fmt.Sprintf("10.0.1.%d", i+1)))
		ab, ba := nw.Connect(a, b, netem.LinkConfig{Delay: netem.ConstantDelay(tg.oneWay)})
		a.AddRoute(b.Addr(), ab)
		b.SetDefaultRoute(ba)
		b.EchoResponder = tg.answers
		addrs = append(addrs, b.Addr())
		names[b.Addr()] = tg.name
	}
	return s, NewProber(a), addrs, names
}

func TestEchoTimeoutFiresOnce(t *testing.T) {
	s := sim.NewScheduler(1)
	nw := netem.New(s)
	a := nw.NewNode("a", netem.MustParseAddr("10.0.0.1"))
	// No route at all: the echo is answered with dest-unreachable to
	// nowhere; the prober must time out exactly once.
	p := NewProber(a)
	calls := 0
	p.Echo(netem.MustParseAddr("10.9.9.9"), func(rtt time.Duration, ok bool) {
		calls++
		if ok {
			t.Error("echo into the void reported success")
		}
	})
	s.RunFor(10 * time.Second)
	if calls != 1 {
		t.Fatalf("callback ran %d times, want exactly 1", calls)
	}
}

func TestConcurrentEchoesDemux(t *testing.T) {
	s := sim.NewScheduler(2)
	nw := netem.New(s)
	a := nw.NewNode("a", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", netem.MustParseAddr("10.0.0.2"))
	c := nw.NewNode("c", netem.MustParseAddr("10.0.0.3"))
	ab, ba := nw.Connect(a, b, netem.LinkConfig{Delay: netem.ConstantDelay(30 * time.Millisecond)})
	ac, ca := nw.Connect(a, c, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
	a.AddRoute(b.Addr(), ab)
	a.AddRoute(c.Addr(), ac)
	b.SetDefaultRoute(ba)
	c.SetDefaultRoute(ca)
	b.EchoResponder = true
	c.EchoResponder = true

	p := NewProber(a)
	var rttB, rttC time.Duration
	p.Echo(b.Addr(), func(rtt time.Duration, ok bool) { rttB = rtt })
	p.Echo(c.Addr(), func(rtt time.Duration, ok bool) { rttC = rtt })
	s.RunFor(5 * time.Second)

	if rttB != 60*time.Millisecond || rttC != 10*time.Millisecond {
		t.Fatalf("rtts = %v / %v: concurrent echoes crossed wires", rttB, rttC)
	}
}

func TestTracerouteTimeoutHop(t *testing.T) {
	s := sim.NewScheduler(3)
	nw := netem.New(s)
	a := nw.NewNode("a", netem.MustParseAddr("10.0.0.1"))
	r := nw.NewNode("r", netem.MustParseAddr("10.0.0.2"))
	b := nw.NewNode("b", netem.MustParseAddr("10.0.0.3"))
	ar, ra := nw.Connect(a, r, netem.LinkConfig{Delay: netem.ConstantDelay(time.Millisecond)})
	rb, br := nw.Connect(r, b, netem.LinkConfig{Delay: netem.ConstantDelay(time.Millisecond)})
	a.SetDefaultRoute(ar)
	r.AddRoute(a.Addr(), ra)
	r.SetDefaultRoute(rb)
	b.SetDefaultRoute(br)
	// The middle router silently eats its own ICMP errors: simulate a
	// non-responding hop by making r drop ICMP it originates.
	r.AttachDevice(netem.DeviceFunc(func(n *netem.Node, pkt *netem.Packet) bool {
		return true
	}))
	// Silencing r properly: drop time-exceeded packets sourced at r on a.
	a.AttachDevice(netem.DeviceFunc(func(n *netem.Node, pkt *netem.Packet) bool {
		if pkt.Proto == netem.ProtoICMP && pkt.Src == r.Addr() {
			if ic, ok := pkt.Payload.(*netem.ICMP); ok && ic.Type == netem.ICMPTimeExceeded {
				return false
			}
		}
		return true
	}))

	p := NewProber(a)
	var hops []Hop
	p.Traceroute(b.Addr(), func(hs []Hop) { hops = hs })
	s.RunFor(time.Minute)
	if len(hops) != 2 {
		t.Fatalf("hops = %d, want 2 (* then destination)", len(hops))
	}
	if !hops[0].Timeout {
		t.Error("hop 1 should be a timeout (*)")
	}
	if !hops[1].Reached {
		t.Error("hop 2 should reach the destination")
	}
}

// A reply stops its echo's timeout and frees the record, and the echo its
// callback sends takes that record. The first echo's timer, had it not
// been stopped, would expire the second one at 3 s, 10 ms before the reply
// that lands inside the second's own timeout.
func TestRecycledEchoOutlivesOldTimeout(t *testing.T) {
	s, p, addrs, _ := star(6,
		starTarget{"fast", 10 * time.Millisecond, true},
		starTarget{"slow", 1495 * time.Millisecond, true})
	fast, slow := addrs[0], addrs[1]
	var first *echoWait
	type outcome struct {
		at  sim.Time
		rtt time.Duration
		ok  bool
	}
	var got []outcome
	p.Echo(fast, func(rtt time.Duration, ok bool) {
		got = append(got, outcome{s.Now(), rtt, ok})
		p.Echo(slow, func(rtt time.Duration, ok bool) {
			got = append(got, outcome{s.Now(), rtt, ok})
		})
		if p.echoCBs[1] != first {
			t.Error("the second echo did not reuse the first echo's record")
		}
	})
	first = p.echoCBs[0]
	s.RunFor(10 * time.Second)
	want := []outcome{
		{sim.Time(20 * time.Millisecond), 20 * time.Millisecond, true},
		{sim.Time(3010 * time.Millisecond), 2990 * time.Millisecond, true},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("outcomes %v, want %v", got, want)
	}
	if st := p.echoFree.Stats(); st.Gets != 2 || st.Hits != 1 || st.Puts != 2 {
		t.Errorf("echo freelist %+v, want 2 gets, 1 hit, 2 puts", st)
	}
}

// A reply that lands after its echo timed out finds nothing pending: it
// runs no callback, and the record its echo held — by then recycled to
// the echo the timeout's callback sent — is left alone.
func TestLateReplyIgnoresRecycledRecord(t *testing.T) {
	s, p, addrs, _ := star(7,
		starTarget{"late", 2 * time.Second, true},
		starTarget{"slow", time.Second, true})
	late, slow := addrs[0], addrs[1]
	calls := map[string]int{}
	var second struct {
		rtt time.Duration
		ok  bool
	}
	p.Echo(late, func(rtt time.Duration, ok bool) {
		calls["late"]++
		if ok {
			t.Error("a 4 s echo beat its 3 s timeout")
		}
		p.Echo(slow, func(rtt time.Duration, ok bool) {
			calls["slow"]++
			second.rtt, second.ok = rtt, ok
		})
	})
	// The late reply lands at 4 s, halfway through the second echo (3 s
	// to 5 s), which holds the first echo's record: it must read the same
	// on either side of the reply.
	var before, after echoWait
	var armed bool
	s.At(sim.Time(3500*time.Millisecond), func() { before = *p.echoCBs[1] })
	s.At(sim.Time(4500*time.Millisecond), func() { after, armed = *p.echoCBs[1], p.echoCBs[1].timeout.Pending() })
	s.RunFor(10 * time.Second)
	if calls["late"] != 1 || calls["slow"] != 1 {
		t.Fatalf("callbacks ran %v, want each once", calls)
	}
	if !second.ok || second.rtt != 2*time.Second {
		t.Errorf("second echo: rtt %v ok %v, want 2s true", second.rtt, second.ok)
	}
	if before.seq != 1 || after.seq != 1 || after.sentAt != before.sentAt ||
		after.timeout != before.timeout || !armed || after.cb == nil {
		t.Errorf("the late reply touched the recycled record: %+v, then %+v", before, after)
	}
	if st := p.echoFree.Stats(); st.Gets != 2 || st.Hits != 1 {
		t.Errorf("echo freelist %+v, want 2 gets, 1 hit", st)
	}
}

// overlapWant is what Monitor delivered for TestMonitorOverlappingRounds
// when every Ping built its own closures: rounds reusing one run per
// target must deliver the same results in the same order.
const overlapWant = `
fast@0s+ fast@20ms+ fast@40ms+ fast@1s+ fast@1.02s+ fast@1.04s+
fast@2s+ fast@2.02s+ fast@2.04s+ fast@3s+ fast@3.02s+ fast@3.04s+
fast@4s+ fast@4.02s+ fast@4.04s+ hole@0s- hole@3s- hole@6s-
late@0s- late@3s- late@6s- hole@1s- hole@4s- hole@7s-
late@1s- late@4s- late@7s- hole@2s- hole@5s- hole@8s-
late@2s- late@5s- late@8s- hole@3s- hole@6s- hole@9s-
late@3s- late@6s- late@9s- hole@4s- hole@7s- hole@10s-
late@4s- late@7s- late@10s-`

// A round every second with 3 probes of up to 3 s each overlaps the
// rounds still running to a black hole and to a target that answers after
// the timeout: those rounds start fresh runs beside the busy ones, and
// every probe is delivered exactly once, in the order separate Pings
// delivered them.
func TestMonitorOverlappingRounds(t *testing.T) {
	s, p, addrs, names := star(4,
		starTarget{"fast", 10 * time.Millisecond, true},
		starTarget{"hole", 10 * time.Millisecond, false},
		starTarget{"late", 2 * time.Second, true})
	var got []PingResult
	const rounds = 5
	p.Monitor(addrs, time.Second, sim.Time(rounds*time.Second), func(r PingResult) { got = append(got, r) })
	s.RunFor(time.Minute)
	if want := rounds * MonitorProbes * len(addrs); len(got) != want {
		t.Fatalf("%d results delivered, want %d", len(got), want)
	}
	var b strings.Builder
	for i, r := range got {
		sep := " "
		if i%6 == 0 {
			sep = "\n"
		}
		ok := "-"
		if r.OK {
			ok = "+"
		}
		fmt.Fprintf(&b, "%s%s@%v%s", sep, names[r.Target], time.Duration(r.At), ok)
	}
	if b.String() != overlapWant {
		t.Errorf("delivered:%s\nwant:%s", b.String(), overlapWant)
	}
	if n := len(p.echoCBs); n != 0 {
		t.Errorf("%d echoes still pending", n)
	}
}

// The server parses the 9-byte request however the stream cuts it: one
// byte then eight, four then the rest, or all nine with the whole upload
// and its FIN behind them in one callback. The first callbacks of a real
// transfer are gathered — a download's request, an upload up to its FIN —
// then replayed in the test's cuts; the transfer must complete.
func TestH3RequestSplitAcrossCallbacks(t *testing.T) {
	for _, tc := range []struct {
		name     string
		download bool
		size     int
		cuts     []int
	}{
		{"download 1+8", true, 3000, []int{1}},
		{"upload 4+5", false, 3000, []int{4, 9}},
		{"upload 9+rest", false, 100, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, client, server, _ := testPath(t, false, false)
			srv := &H3Server{Endpoint: quic.NewEndpoint(server, 443)}
			// A download's stream carries its request and nothing more; an
			// upload's is gathered up to its FIN.
			need := 9
			if !tc.download {
				need += tc.size
			}
			var head []byte
			var headFin bool
			replayed := false
			srv.Endpoint.Listen(quic.Config{}, func(c *quic.Connection) {
				c.OnStream = func(st *quic.Stream) {
					srv.handleStream(c, st)
					parse := st.OnData
					st.OnData = func(data []byte, fin bool) {
						if replayed {
							parse(data, fin)
							return
						}
						head, headFin = append(head, data...), fin
						if len(head) < need || !tc.download && !fin {
							return
						}
						replayed = true
						at := 0
						for _, cut := range tc.cuts {
							parse(head[at:cut], false)
							at = cut
						}
						parse(head[at:], fin)
					}
				}
			})
			size := uint64(tc.size)
			var got int
			var done bool
			conn := quic.NewEndpoint(client, 50000).Dial(server.Addr(), 443, quic.Config{})
			conn.OnEstablished = func() {
				var st *quic.Stream
				if tc.download {
					st = sendRequest(conn, reqDownload, size)
				} else {
					st = sendRequest(conn, reqUpload, size)
					st.WriteZeroes(tc.size)
					st.Close()
				}
				st.OnData = func(data []byte, fin bool) {
					got += len(data)
					done = done || fin
				}
			}
			s.RunFor(10 * time.Second)
			if len(head) != need || headFin == tc.download {
				t.Fatalf("the server gathered %d bytes, FIN %v, before the replay; want %d, FIN %v", len(head), headFin, need, !tc.download)
			}
			want := tc.size
			if !tc.download {
				want = 1 // the receipt
			}
			if got != want || !done {
				t.Errorf("client received %d bytes, fin %v; want %d and fin", got, done, want)
			}
		})
	}
}
