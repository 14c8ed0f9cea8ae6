package quic

import (
	"fmt"
	"testing"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// TestZeroRTTResumptionSkipsHandshakeRTT: with a shared session cache, a
// second connection to the same server resumes at 0-RTT — it is usable
// immediately and the transfer completes one handshake RTT sooner than
// the first (full-handshake) connection over the identical path. A third
// client with no session cache never resumes, though the server is the
// one the cache holds a ticket for: it pays the full handshake again.
func TestZeroRTTResumptionSkipsHandshakeRTT(t *testing.T) {
	const rtt = 80 * time.Millisecond
	const size = 20000

	s := sim.NewScheduler(29)
	nw := netem.New(s)
	a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	ab, ba := nw.Connect(a, b, netem.LinkConfig{
		RateBps: 20e6,
		Delay:   netem.ConstantDelay(rtt / 2),
	})
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)

	sep := NewEndpoint(b, 443)
	finAt := make(map[uint64]sim.Time) // stream fin receipt per conn ID
	var order []uint64
	sep.Listen(Config{}, func(c *Connection) {
		id := c.connID
		order = append(order, id)
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, fin bool) {
				if fin {
					finAt[id] = s.Now()
				}
			}
		}
	})

	sessions := NewSessionCache()
	dial := func(port uint16, sessions *SessionCache) *Connection {
		cep := NewEndpoint(a, port)
		conn := cep.Dial(b.Addr(), 443, Config{Sessions: sessions})
		conn.OnEstablished = func() {
			st := conn.OpenStream()
			st.WriteZeroes(size)
			st.Close()
		}
		return conn
	}

	conn1 := dial(5000, sessions)
	var conn2, conn3 *Connection
	const gap = 2 * time.Second
	s.After(gap, func() { conn2 = dial(5001, sessions) })
	s.After(2*gap, func() { conn3 = dial(5002, nil) })
	s.RunFor(10 * time.Second)

	if conn1.Stats.ZeroRTTResumed {
		t.Error("first connection resumed with an empty session cache")
	}
	if conn2 == nil || !conn2.Stats.ZeroRTTResumed {
		t.Fatal("second connection did not resume at 0-RTT")
	}
	if len(sessions.m) != 1 {
		t.Errorf("session cache has %d tickets, want 1 (same server)", len(sessions.m))
	}
	if conn3 == nil || conn3.Stats.ZeroRTTResumed {
		t.Error("a client with no session cache resumed at 0-RTT")
	}
	if len(order) != 3 {
		t.Fatalf("server accepted %d connections, want 3", len(order))
	}
	d1 := finAt[order[0]]
	d2 := finAt[order[1]].Sub(sim.Time(0).Add(gap))
	if d1 == 0 || d2 <= 0 {
		t.Fatalf("transfers incomplete: full=%v resumed=%v", d1, d2)
	}
	saved := time.Duration(d1) - d2
	// The resumed transfer rides the first flight: it should save right
	// around one RTT (the handshake round) — well over half, under 1.5x.
	if saved < rtt/2 || saved > 3*rtt/2 {
		t.Errorf("0-RTT saved %v, want ~%v (full %v, resumed %v)",
			saved, rtt, time.Duration(d1), d2)
	}
	// The cacheless transfer takes the first one's full-handshake time.
	if d3 := finAt[order[2]].Sub(sim.Time(0).Add(2 * gap)); d3 < time.Duration(d1)-rtt/2 {
		t.Errorf("cacheless transfer took %v, want the full handshake's %v", d3, time.Duration(d1))
	}
}

// TestHandoverReorderingNoSpuriousLoss: a mid-transfer route flip onto a
// lower-latency parallel path (the 15 s reconfiguration analogue) lets
// late packets overtake earlier in-flight ones by one delay quantum. The
// packet threshold (3) and time threshold in loss detection must absorb
// that: no packets may be declared lost and nothing retransmitted on a
// loss-free network.
func TestHandoverReorderingNoSpuriousLoss(t *testing.T) {
	const total = 1 << 20
	for _, seed := range []uint64{7, 23, 101} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := sim.NewScheduler(seed)
			nw := netem.New(s)
			a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
			m := nw.NewNode("pop", netem.MustParseAddr("10.0.0.254"))
			b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
			// The shared bottleneck comes first; behind it, two delay-only
			// (rate-0, never-queuing) paths one delay quantum (1 ms)
			// apart. A slow→fast flip then reorders only by propagation:
			// at 20 Mbps a full packet serializes in ~0.5 ms, so ~2 PNs
			// overtake — inside the packet threshold. Parallel links with
			// their own queues would instead reorder by the whole queue
			// backlog, which no loss detector should be asked to absorb.
			am := nw.AddLink(a, m, netem.LinkConfig{RateBps: 20e6})
			slow := nw.AddLink(m, b, netem.LinkConfig{Delay: netem.ConstantDelay(6 * time.Millisecond)})
			fast := nw.AddLink(m, b, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
			bm := nw.AddLink(b, m, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
			ma := nw.AddLink(m, a, netem.LinkConfig{RateBps: 20e6})
			a.AddRoute(b.Addr(), am)
			m.AddRoute(b.Addr(), slow)
			b.AddRoute(a.Addr(), bm)
			m.AddRoute(a.Addr(), ma)

			cep := NewEndpoint(a, 5000)
			sep := NewEndpoint(b, 443)
			received := 0
			done := false
			sep.Listen(Config{}, func(c *Connection) {
				c.OnStream = func(st *Stream) {
					st.OnData = func(data []byte, fin bool) {
						received += len(data)
						if fin {
							done = true
						}
					}
				}
			})
			conn := cep.Dial(b.Addr(), 443, Config{})
			conn.OnEstablished = func() {
				st := conn.OpenStream()
				st.WriteZeroes(total)
				st.Close()
			}
			// Handovers in both directions mid-transfer: slow→fast
			// reorders, fast→slow merely stretches the gap.
			s.After(200*time.Millisecond, func() { m.AddRoute(b.Addr(), fast) })
			s.After(400*time.Millisecond, func() { m.AddRoute(b.Addr(), slow) })
			s.RunFor(30 * time.Second)

			if !done || received != total {
				t.Fatalf("transfer incomplete: %d/%d", received, total)
			}
			if conn.Stats.PacketsLost != 0 {
				t.Errorf("%d spurious losses after reordering handover", conn.Stats.PacketsLost)
			}
			if conn.Stats.FramesRetransmitted != 0 {
				t.Errorf("%d frames retransmitted on a loss-free network", conn.Stats.FramesRetransmitted)
			}
		})
	}
}

// TestMinRTTFilterFollowsController: a connection takes its min-RTT
// filter from its congestion controller. Under BBR a 40 ms sample is
// forgotten once BBR's 10 s window has passed it; under CUBIC (the
// default) and Fixed the all-time minimum keeps it.
func TestMinRTTFilterFollowsController(t *testing.T) {
	for _, c := range []struct {
		name  string
		newCC func() cc.CongestionController
		want  time.Duration
	}{
		{"bbr", func() cc.CongestionController { return cc.NewBBR(MaxPayloadSize) }, 60 * time.Millisecond},
		{"cubic", nil, 40 * time.Millisecond},
		{"fixed", func() cc.CongestionController { return cc.NewFixed(64 << 10) }, 40 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			node := netem.New(sim.NewScheduler(1)).NewNode("x", netem.MustParseAddr("10.0.0.1"))
			conn := newConnection(NewEndpoint(node, 1), Config{NewCC: c.newCC}, true, 1, netem.MustParseAddr("10.0.0.2"), 1)
			conn.rtt.UpdateAt(0, 40*time.Millisecond, 0)
			conn.rtt.UpdateAt(sim.Time(11*time.Second), 60*time.Millisecond, 0)
			if got := conn.rtt.Min(); got != c.want {
				t.Errorf("%s connection: min RTT %v 11 s after a 40 ms sample, want %v", c.name, got, c.want)
			}
		})
	}
}
