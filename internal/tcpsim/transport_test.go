package tcpsim

import (
	"fmt"
	"testing"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// TestTCPHandoverReorderingNoSpuriousRetransmit: a route flip onto a
// lower-latency parallel path behind a shared bottleneck reorders
// in-flight segments by one delay quantum (~2 MSS at the bottleneck
// rate). The RFC 6675 three-segment SACK threshold and the RACK-style
// time threshold must both absorb it: zero fast retransmits, zero RTOs,
// zero retransmitted bytes on a loss-free network.
func TestTCPHandoverReorderingNoSpuriousRetransmit(t *testing.T) {
	const total = 1 << 20
	for _, seed := range []uint64{7, 23, 101} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := sim.NewScheduler(seed)
			nw := netem.New(s)
			a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
			m := nw.NewNode("pop", netem.MustParseAddr("10.0.0.254"))
			b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
			// Same shape as the QUIC suite: bottleneck first, then two
			// delay-only paths 1 ms apart so a slow→fast handover reorders
			// by propagation only (at 20 Mbps ≈ 2 segments, inside the
			// 3-segment SACK threshold).
			am := nw.AddLink(a, m, netem.LinkConfig{RateBps: 20e6})
			slowP := nw.AddLink(m, b, netem.LinkConfig{Delay: netem.ConstantDelay(6 * time.Millisecond)})
			fastP := nw.AddLink(m, b, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
			bm := nw.AddLink(b, m, netem.LinkConfig{Delay: netem.ConstantDelay(5 * time.Millisecond)})
			ma := nw.AddLink(m, a, netem.LinkConfig{RateBps: 20e6})
			a.AddRoute(b.Addr(), am)
			m.AddRoute(b.Addr(), slowP)
			b.AddRoute(a.Addr(), bm)
			m.AddRoute(a.Addr(), ma)

			cfg := DefaultConfig()
			cfg.TLSRounds = 0
			received := 0
			Listen(b, 80, cfg, func(c *Conn) {
				c.OnData = func(n int, fin bool) { received += n }
			})
			c := Dial(a, b.Addr(), 80, cfg)
			c.OnEstablished = func() {
				c.Write(total)
				c.Close()
			}
			s.After(200*time.Millisecond, func() { m.AddRoute(b.Addr(), fastP) })
			s.After(400*time.Millisecond, func() { m.AddRoute(b.Addr(), slowP) })
			s.RunFor(30 * time.Second)

			if received != total {
				t.Fatalf("transfer incomplete: %d/%d", received, total)
			}
			if c.Stats.FastRetransmits != 0 {
				t.Errorf("%d spurious fast retransmits after reordering handover", c.Stats.FastRetransmits)
			}
			if c.Stats.RTOs != 0 {
				t.Errorf("%d spurious RTOs after reordering handover", c.Stats.RTOs)
			}
			if c.Stats.BytesRetx != 0 {
				t.Errorf("%d bytes retransmitted on a loss-free network", c.Stats.BytesRetx)
			}
		})
	}
}

// departureTap records when payload-bearing TCP segments leave a node.
type departureTap struct{ times []sim.Time }

func (d *departureTap) ProcessEgress(n *netem.Node, pkt *netem.Packet) bool {
	if seg, ok := pkt.Payload.(*Segment); ok && seg.Len > 0 {
		d.times = append(d.times, n.Scheduler().Now())
	}
	return true
}

func (d *departureTap) Process(n *netem.Node, pkt *netem.Packet) bool { return true }

// maxBurstRun returns the longest run of departures spaced closer than
// gap apart.
func maxBurstRun(times []sim.Time, gap time.Duration) int {
	longest, run := 0, 1
	for i := 1; i < len(times); i++ {
		if times[i].Sub(times[i-1]) < gap {
			run++
		} else {
			run = 1
		}
		if run > longest {
			longest = run
		}
	}
	return longest
}

// TestTCPPacingSpacesDepartures: with Config.EnablePacing the wire trace
// shows no back-to-back run longer than the burst allowance; unpaced, the
// whole window leaves the node in one burst. This pins the profile
// attribute end to end — tcpsim honors the same pacer QUIC does.
func TestTCPPacingSpacesDepartures(t *testing.T) {
	run := func(pacing bool) int {
		s := sim.NewScheduler(13)
		nw := netem.New(s)
		a := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
		b := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
		ab, ba := nw.Connect(a, b, netem.LinkConfig{
			RateBps: 10e6,
			Delay:   netem.ConstantDelay(50 * time.Millisecond),
		})
		a.AddRoute(b.Addr(), ab)
		b.AddRoute(a.Addr(), ba)
		tap := &departureTap{}
		a.AttachDevice(tap)

		cfg := DefaultConfig()
		cfg.TLSRounds = 0
		// Fixed window keeps the pacing rate (gain x cwnd/SRTT) constant,
		// so the expected spacing is unambiguous.
		cfg.NewCC = func(mss int) cc.CongestionController { return cc.NewFixed(64 << 10) }
		cfg.EnablePacing = pacing
		Listen(b, 80, DefaultConfig(), nil)
		c := Dial(a, b.Addr(), 80, cfg)
		c.OnEstablished = func() {
			c.Write(300 << 10)
			c.Close()
		}
		s.RunFor(20 * time.Second)
		return maxBurstRun(tap.times, 100*time.Microsecond)
	}

	unpaced := run(false)
	paced := run(true)
	if paced > cc.DefaultBurstPackets {
		t.Errorf("paced run of %d back-to-back segments exceeds the %d-packet burst allowance",
			paced, cc.DefaultBurstPackets)
	}
	if unpaced <= cc.DefaultBurstPackets {
		t.Errorf("unpaced max run %d suspiciously small — the baseline burst is gone", unpaced)
	}
}

// TestMinRTTFilterFollowsController: a connection takes its min-RTT
// filter from its congestion controller. Under BBR a 40 ms sample is
// forgotten once BBR's 10 s window has passed it; under CUBIC (the
// default) and Fixed (the PEP's space-segment legs) the all-time minimum
// keeps it.
func TestMinRTTFilterFollowsController(t *testing.T) {
	for _, c := range []struct {
		name  string
		newCC func(mss int) cc.CongestionController
		want  time.Duration
	}{
		{"bbr", func(mss int) cc.CongestionController { return cc.NewBBR(mss) }, 60 * time.Millisecond},
		{"cubic", nil, 40 * time.Millisecond},
		{"fixed", func(int) cc.CongestionController { return cc.NewFixed(64 << 10) }, 40 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, a, b := pairNet(t, netem.LinkConfig{RateBps: 10e6})
			cfg := DefaultConfig()
			cfg.NewCC = c.newCC
			conn := Dial(a, b.Addr(), 80, cfg)
			conn.rtt.UpdateAt(0, 40*time.Millisecond, 0)
			conn.rtt.UpdateAt(sim.Time(11*time.Second), 60*time.Millisecond, 0)
			if got := conn.rtt.Min(); got != c.want {
				t.Errorf("%s connection: min RTT %v 11 s after a 40 ms sample, want %v", c.name, got, c.want)
			}
		})
	}
}
