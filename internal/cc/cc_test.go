package cc

import (
	"testing"
	"testing/quick"
	"time"

	"starlinkperf/internal/sim"
)

const testMSS = 1460

func at(sec float64) sim.Time { return sim.Time(sec * float64(time.Second)) }

func TestCubicInitialWindow(t *testing.T) {
	c := NewCubic(testMSS)
	if c.Window() != InitialWindowPackets*testMSS {
		t.Errorf("initial window = %d", c.Window())
	}
}

func TestCubicSlowStartAndBackoff(t *testing.T) {
	c := NewCubic(testMSS)
	w0 := c.Window()
	if !c.inSlowStart() {
		t.Fatal("should start in slow start")
	}
	var r RTTEstimator
	r.Update(50*time.Millisecond, 0)
	c.OnPacketAcked(0, 1350, &r)
	if c.Window() != w0+1350 {
		t.Errorf("slow start growth: %d -> %d", w0, c.Window())
	}
	// Loss halves-ish (beta 0.7) and exits slow start.
	c.OnCongestionEvent(at(1), at(0))
	if got := c.Window(); got != int(float64(w0+1350)*0.7) {
		t.Errorf("post-loss window = %d", got)
	}
	if c.inSlowStart() {
		t.Error("should have left slow start")
	}
	// Second loss within same recovery episode: no further reduction.
	w := c.Window()
	c.OnCongestionEvent(at(2), at(0))
	if c.Window() != w {
		t.Error("same-episode loss reduced window again")
	}
}

func TestCubicWindowNeverBelowFloor(t *testing.T) {
	c := NewCubic(testMSS)
	var r RTTEstimator
	r.Update(50*time.Millisecond, 0)
	for i := 0; i < 50; i++ {
		c.OnCongestionEvent(at(float64(i)), at(float64(i)))
	}
	if c.Window() < MinWindowPackets*testMSS {
		t.Errorf("window %d below floor", c.Window())
	}
}

func TestCubicGrowthBetweenLossesIsMonotone(t *testing.T) {
	c := NewCubic(testMSS)
	var r RTTEstimator
	r.Update(50*time.Millisecond, 0)
	// Leave slow start.
	c.OnCongestionEvent(at(0.1), at(0.05))
	prev := c.Window()
	now := 0.2
	for i := 0; i < 500; i++ {
		now += 0.01
		c.OnPacketAcked(at(now), testMSS, &r)
		if w := c.Window(); w < prev {
			t.Fatalf("window shrank without loss: %d -> %d at step %d", prev, w, i)
		} else {
			prev = w
		}
	}
	if prev <= MinWindowPackets*testMSS {
		t.Error("window never grew in congestion avoidance")
	}
}

func TestCubicConcaveThenConvex(t *testing.T) {
	// After a loss the window should approach wMax slowly (concave) then
	// accelerate past it (convex): growth in the first second after
	// reaching wMax should exceed growth in the second before it.
	c := NewCubic(testMSS)
	var r RTTEstimator
	r.Update(50*time.Millisecond, 0)
	// Grow to a meaningful window in slow start, then lose.
	for i := 0; i < 200; i++ {
		c.OnPacketAcked(at(0.001*float64(i)), testMSS, &r)
	}
	c.OnCongestionEvent(at(1), at(0.9))
	start := c.Window()

	window := func(from, to float64) int {
		w0 := c.Window()
		for ts := from; ts < to; ts += 0.005 {
			c.OnPacketAcked(at(ts), testMSS, &r)
		}
		return c.Window() - w0
	}
	early := window(1.3, 2.3)
	late := window(6.0, 7.0)
	if late <= early {
		t.Logf("early growth %d, late growth %d (start %d)", early, late, start)
		t.Error("cubic should accelerate after the plateau")
	}
}

func TestCCSameEpochLossIgnored(t *testing.T) {
	ctl := NewCubic(testMSS)
	ctl.OnCongestionEvent(at(1), at(0.5))
	w := ctl.Window()
	ctl.OnCongestionEvent(at(1.01), at(0.9)) // sent before recovery start
	if ctl.Window() != w {
		t.Error("same-episode loss reduced window")
	}
	ctl.OnCongestionEvent(at(2), at(1.5)) // sent after recovery start
	if ctl.Window() >= w {
		t.Error("new-episode loss did not reduce window")
	}
}

func TestPacerDisabledIsZero(t *testing.T) {
	p := Pacer{}
	var r RTTEstimator
	r.Update(50*time.Millisecond, 0)
	if d := p.Delay(0, 1500, 100000, &r); d != 0 {
		t.Errorf("disabled pacer delay = %v", d)
	}
}

func TestPacerSpacesPackets(t *testing.T) {
	p := Pacer{Enabled: true, BurstPackets: 1}
	var r RTTEstimator
	r.Update(100*time.Millisecond, 0)
	cwnd := 8 * 1500 // 12 kB per 100ms × pacerGain 1.25 = 150 kB/s
	// First packet immediate, subsequent spaced at size/rate = 10ms.
	if d := p.Delay(0, 1500, cwnd, &r); d != 0 {
		t.Fatalf("first packet delayed %v", d)
	}
	d := p.Delay(0, 1500, cwnd, &r)
	if d != 10*time.Millisecond {
		t.Errorf("second packet delay = %v, want 10ms", d)
	}
}

func TestPacerMaxBurstAllowance(t *testing.T) {
	// After idle the bucket holds exactly BurstPackets packets: that many
	// leave back to back, then spacing resumes — a cwnd-growth spurt right
	// after slow-start exit cannot emit an unbounded unpaced burst.
	p := Pacer{Enabled: true, BurstPackets: 4}
	var r RTTEstimator
	r.Update(100*time.Millisecond, 0)
	cwnd := 8 * 1500 // × pacerGain: 150 kB/s -> 10ms per 1500B packet
	granted := 0
	for i := 0; i < 20; i++ {
		if d := p.Delay(at(5), 1500, cwnd, &r); d == 0 {
			granted++
		} else {
			break
		}
	}
	if granted != 4 {
		t.Errorf("burst after idle granted %d packets, want 4", granted)
	}
	if d := p.Delay(at(5), 1500, cwnd, &r); d != 10*time.Millisecond {
		t.Errorf("post-burst delay = %v, want 10ms", d)
	}
}

func TestPacerDeferredPacketChargedOnce(t *testing.T) {
	// Regression: the pre-token-bucket pacer advanced its departure clock
	// on every Delay call, so a packet the caller deferred (d > 0) and
	// re-offered after the wait was charged twice, pacing the flow at half
	// the configured rate. Emulate the real send path — on a positive
	// delay, wait it out and retry — and check the achieved rate.
	p := Pacer{Enabled: true, BurstPackets: 1}
	var r RTTEstimator
	r.Update(100*time.Millisecond, 0)
	cwnd := 8 * 1500 // × pacerGain: 150 kB/s -> 10ms per 1500B packet
	now := sim.Time(0)
	const packets = 100
	for i := 0; i < packets; i++ {
		d := p.Delay(now, 1500, cwnd, &r)
		if d > 0 {
			now = now.Add(d)
			if d2 := p.Delay(now, 1500, cwnd, &r); d2 != 0 {
				t.Fatalf("packet %d still deferred %v after waiting the returned delay", i, d2)
			}
		}
	}
	// 100 packets at 10ms spacing with a 1-packet burst: the last leaves
	// at 990ms. The double-charging bug put it near 1980ms.
	want := 990 * time.Millisecond
	got := time.Duration(now)
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("last departure at %v, want %v (+-1ms)", got, want)
	}
}

func TestPacerInterDepartureSpacingTrace(t *testing.T) {
	// Trace-based spacing check: drive a synthetic send loop through the
	// pacer, record every departure instant, and assert (a) no run of
	// back-to-back departures longer than the burst allowance, (b) every
	// gap after a burst respects the per-packet interval.
	p := Pacer{Enabled: true, BurstPackets: 3}
	var r RTTEstimator
	r.Update(100*time.Millisecond, 0)
	cwnd := 8 * 1500 // × pacerGain: 150 kB/s -> 10ms per 1500B packet
	interval := 10 * time.Millisecond
	now := sim.Time(0)
	var departures []sim.Time
	for len(departures) < 60 {
		d := p.Delay(now, 1500, cwnd, &r)
		if d > 0 {
			now = now.Add(d)
			continue
		}
		departures = append(departures, now)
	}
	run := 1
	for i := 1; i < len(departures); i++ {
		gap := departures[i].Sub(departures[i-1])
		if gap == 0 {
			run++
			if run > 3 {
				t.Fatalf("departure %d: back-to-back run of %d exceeds burst allowance 3", i, run)
			}
			continue
		}
		run = 1
		if gap < interval-time.Microsecond {
			t.Fatalf("departure %d: gap %v below pacing interval %v", i, gap, interval)
		}
	}
}

func TestPacerPropertyNonNegative(t *testing.T) {
	p := Pacer{Enabled: true}
	var r RTTEstimator
	r.Update(30*time.Millisecond, 0)
	f := func(sz uint16, w uint32) bool {
		d := p.Delay(at(1), int(sz%9000)+1, int(w%1000000)+1500, &r)
		return d >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
