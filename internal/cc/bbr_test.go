package cc

import (
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

// bbrLinkResult is the observable outcome of one synthetic-link run, used
// both for behavior assertions and for bit-determinism comparison.
type bbrLinkResult struct {
	statesSeen map[string]bool
	finalState string
	finalCwnd  int
	acked      int
	minRTT     time.Duration
}

// runBBRLink drives a BBR controller over a synthetic FIFO bottleneck
// (rate bytes/s, prop one-way delay) for dur of sim time: send while the
// window allows, ack in FIFO order with the queueing-inflated RTT sample.
// Everything is integer/float arithmetic on deterministic inputs — two
// runs must match bit for bit.
func runBBRLink(rate float64, prop time.Duration, dur time.Duration) bbrLinkResult {
	const mss = 1200
	b := NewBBR(mss)
	var est RTTEstimator
	est.MinWindow = 10 * time.Second

	type inFlight struct {
		ackAt  sim.Time
		sample time.Duration
	}
	var q []inFlight
	var linkFree sim.Time
	now := sim.Time(0)
	end := sim.Time(dur)
	res := bbrLinkResult{statesSeen: map[string]bool{b.State(): true}}
	outstanding := 0

	for now < end {
		for outstanding+mss <= b.Window() {
			depart := now
			if linkFree > depart {
				depart = linkFree
			}
			txDone := depart.Add(time.Duration(float64(mss*8) / (rate * 8) * float64(time.Second)))
			linkFree = txDone
			ackAt := txDone.Add(prop * 2)
			b.OnPacketSent(now, mss)
			outstanding += mss
			q = append(q, inFlight{ackAt: ackAt, sample: ackAt.Sub(now)})
		}
		if len(q) == 0 {
			// Window smaller than one packet cannot happen (4*mss floor),
			// but guard against a stall instead of spinning.
			break
		}
		nxt := q[0]
		q = q[:copy(q, q[1:])]
		now = nxt.ackAt
		outstanding -= mss
		est.UpdateAt(now, nxt.sample, 0)
		b.OnPacketAcked(now, mss, &est)
		res.statesSeen[b.State()] = true
		res.acked++
	}
	res.finalState = b.State()
	res.finalCwnd = b.Window()
	res.minRTT = est.Min()
	return res
}

// TestBBRStateMachineTraversal drives the controller over a 10 Mbps /
// 40 ms RTT bottleneck for 25 s and checks the full state machine runs:
// startup exits once bandwidth stops growing, drain empties the startup
// queue, probe-bw cruises, and probe-rtt fires on its 10 s cadence.
func TestBBRStateMachineTraversal(t *testing.T) {
	res := runBBRLink(1.25e6, 20*time.Millisecond, 25*time.Second)
	for _, st := range []string{"startup", "drain", "probe-bw", "probe-rtt"} {
		if !res.statesSeen[st] {
			t.Errorf("state %q never entered (seen: %v)", st, res.statesSeen)
		}
	}
	// Steady state: window between 1x and 4x the true BDP (1.25 MB/s x
	// 40 ms = 50 kB); far outside means the model estimate is broken.
	bdp := 50000
	if res.finalCwnd < bdp/2 || res.finalCwnd > 4*bdp {
		t.Errorf("final cwnd %d outside [%d, %d] around the true BDP", res.finalCwnd, bdp/2, 4*bdp)
	}
	if res.acked == 0 {
		t.Fatal("no packets acked")
	}
}

// TestBBRDeterminism pins bit-determinism: the controller's trajectory is
// a pure function of its inputs. It matters most under -race (ci.sh),
// with the core modern-profile determinism suite.
func TestBBRDeterminism(t *testing.T) {
	a := runBBRLink(1.25e6, 20*time.Millisecond, 12*time.Second)
	b := runBBRLink(1.25e6, 20*time.Millisecond, 12*time.Second)
	if a.finalState != b.finalState || a.finalCwnd != b.finalCwnd ||
		a.acked != b.acked || a.minRTT != b.minRTT {
		t.Errorf("two identical runs diverged: %+v vs %+v", a, b)
	}
}

// TestBBRStartupExitsOnPlateau: on a slow link the exponential phase must
// end within a handful of round trips of the bandwidth plateauing, not
// run unbounded like pre-Hystart slow start.
func TestBBRStartupExitsOnPlateau(t *testing.T) {
	res := runBBRLink(250e3, 25*time.Millisecond, 5*time.Second)
	if res.statesSeen["startup"] && res.finalState == "startup" {
		t.Error("still in startup after 5s on a 2 Mbps link")
	}
}

// TestBBRProbeRTTCollapsesWindow: during probe-rtt the window must sit at
// the 4-packet floor so the queue drains and min RTT revalidates.
func TestBBRProbeRTTCollapsesWindow(t *testing.T) {
	const mss = 1200
	b := NewBBR(mss)
	var est RTTEstimator
	// Force the machinery directly: give it a bandwidth estimate and walk
	// it into probe-rtt via the 10 s interval.
	est.UpdateAt(at(0.1), 40*time.Millisecond, 0)
	b.state = bbrProbeBW
	b.lastProbeRTT = at(0.1)
	b.cycleStart = at(0.1)
	b.recordBW(1e6)
	b.OnPacketSent(at(11), mss)
	b.OnPacketAcked(at(11), mss, &est)
	if b.State() != "probe-rtt" {
		t.Fatalf("state %q after probe-rtt interval elapsed, want probe-rtt", b.State())
	}
	if b.Window() != 4*mss {
		t.Errorf("probe-rtt window = %d, want %d", b.Window(), 4*mss)
	}
	// 250 ms later it must be back in probe-bw with the window restored.
	b.OnPacketSent(at(11.3), mss)
	b.OnPacketAcked(at(11.3), mss, &est)
	if b.State() != "probe-bw" {
		t.Errorf("state %q after probe-rtt duration, want probe-bw", b.State())
	}
	if b.Window() <= 4*mss {
		t.Errorf("window %d not restored after probe-rtt", b.Window())
	}
}

// TestBBRWindowedMinRTTAfterHandover ties the two new pieces together:
// with a windowed estimator, a handover that raises the path RTT grows
// the BDP-derived window once the stale min expires — the exact
// interaction the all-time min filter broke.
func TestBBRWindowedMinRTTAfterHandover(t *testing.T) {
	const mss = 1200
	mkEst := func(window time.Duration) *RTTEstimator {
		e := &RTTEstimator{MinWindow: window}
		for s := 0.0; s < 5; s += 0.25 {
			e.UpdateAt(at(s), 20*time.Millisecond, 0)
		}
		for s := 5.0; s < 25; s += 0.25 {
			e.UpdateAt(at(s), 60*time.Millisecond, 0)
		}
		return e
	}
	b := NewBBR(mss)
	b.recordBW(1e6)
	stale := mkEst(0)
	fresh := mkEst(10 * time.Second)
	if got := b.bdp(stale, 1.0); got != 20000 {
		t.Errorf("all-time-min BDP = %d, want 20000 (stale 20ms min)", got)
	}
	if got := b.bdp(fresh, 1.0); got != 60000 {
		t.Errorf("windowed-min BDP = %d, want 60000 (post-handover 60ms)", got)
	}
}
