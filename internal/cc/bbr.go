package cc

import (
	"time"

	"starlinkperf/internal/sim"
)

// BBR constants, following the BBRv1 draft values.
const (
	// bbrHighGain is the startup pacing/cwnd gain (2/ln 2).
	bbrHighGain  = 2.885
	bbrDrainGain = 1.0 / bbrHighGain
	// bbrCwndGain scales the BDP into the steady-state congestion window.
	bbrCwndGain = 2.0
	// bbrBWFilterLen is the windowed-max bandwidth filter length, in
	// round trips.
	bbrBWFilterLen = 10
	// bbrFullBWThresh / bbrFullBWRounds: startup ends when the bottleneck
	// estimate has not grown by 25% for 3 consecutive rounds.
	bbrFullBWThresh = 1.25
	bbrFullBWRounds = 3
	// bbrMinRTTWindow is BBR's min-RTT filter length: a connection running
	// BBR trusts a min-RTT sample this long (NewRTTEstimator), and every
	// bbrMinRTTWindow the window collapses to bbrMinWindowPackets for
	// bbrProbeRTTDuration to drain the queue and revalidate min RTT.
	bbrMinRTTWindow     = 10 * time.Second
	bbrProbeRTTDuration = 200 * time.Millisecond
	bbrMinWindowPackets = 4
	// bbrDrainRoundLimit bounds the drain phase: the inflight estimate is
	// reconstructed from sent/acked deltas (the controller interface has
	// no ground-truth inflight), so a drift must not strand the state
	// machine in drain forever.
	bbrDrainRoundLimit = 8
)

// bbrPacingGainCycle is the probe-bw gain cycle: probe up, drain the
// probe, then cruise. BBRv1 randomizes the entry phase; this model pins it
// for determinism (output must be a pure function of config and seed).
var bbrPacingGainCycle = [...]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

type bbrState uint8

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

type bwSample struct {
	round uint64
	bw    float64 // bytes per second
}

// BBR is a deterministic BBR-style (v1) model-based controller: it builds
// a bottleneck-bandwidth estimate from per-round delivery-rate samples
// (windowed max over bbrBWFilterLen rounds) and a propagation-delay
// estimate from the RTT estimator's min filter, then walks the
// startup → drain → probe-bw ⇄ probe-rtt state machine, sizing the window
// to a gain times the bandwidth-delay product instead of reacting to loss.
//
// It fits behind the CongestionController interface the connections
// already use: rounds are delimited by the cumulative delivered counter
// (a round ends when everything that was in flight at its start has been
// acked), and inflight is the sent-minus-acked estimate, clamped each
// round so estimation drift from untracked losses stays bounded. Pair it
// with the estimator NewRTTEstimator returns for it, whose minimum ages
// out after bbrMinRTTWindow, or the prop-delay term never expires (the
// exact bug the windowed min filter fixes).
//
// Loss response is deliberately BBRv1-faithful: a congestion event only
// trims the inflight estimate and applies packet conservation for the
// episode; the model, not the loss, sets the window.
type BBR struct {
	mss  int
	cwnd int

	inflight int // sent-but-unacked bytes (estimate)

	delivered      uint64 // cumulative acked bytes
	round          uint64 // round-trip counter
	roundStart     sim.Time
	roundDelivered uint64 // delivered at round start
	roundTarget    uint64 // delivered count that ends the round
	haveRound      bool

	bwFilter [bbrBWFilterLen]bwSample

	state     bbrState
	fullBW    float64
	fullBWCnt int
	filled    bool

	cycleIdx   int
	cycleStart sim.Time

	drainRounds  int
	lastProbeRTT sim.Time
	probeRTTDone sim.Time
	priorCwnd    int

	recovery   sim.Time
	inRecovery bool
}

// NewBBR returns a BBR controller with the standard initial window for
// the given maximum segment size.
func NewBBR(mss int) *BBR {
	return &BBR{
		mss:   mss,
		cwnd:  InitialWindowPackets * mss,
		state: bbrStartup,
	}
}

// Window implements CongestionController.
func (b *BBR) Window() int {
	if min := b.minCwnd(); b.cwnd < min {
		return min
	}
	return b.cwnd
}

func (b *BBR) minCwnd() int { return bbrMinWindowPackets * b.mss }

// OnPacketSent implements CongestionController.
func (b *BBR) OnPacketSent(now sim.Time, bytes int) {
	b.inflight += bytes
}

// OnPacketAcked implements CongestionController.
func (b *BBR) OnPacketAcked(now sim.Time, bytes int, rtt *RTTEstimator) {
	b.delivered += uint64(bytes)
	b.inflight -= bytes
	if b.inflight < 0 {
		b.inflight = 0
	}
	if b.inRecovery && now.Sub(b.recovery) > rtt.Smoothed() {
		b.inRecovery = false
	}
	if b.state == bbrStartup {
		b.cwnd += bytes
	}
	if !b.haveRound {
		b.startRound(now)
	} else if b.delivered >= b.roundTarget {
		b.endRound(now, rtt)
		b.startRound(now)
	}
	b.tick(now, rtt)
	b.updateCwnd(rtt)
}

func (b *BBR) startRound(now sim.Time) {
	b.haveRound = true
	b.roundStart = now
	b.roundDelivered = b.delivered
	b.roundTarget = b.delivered + uint64(b.inflight)
	if b.roundTarget == b.delivered {
		b.roundTarget++
	}
}

// endRound closes a round trip: take one delivery-rate sample, advance
// the startup full-pipe detector, and re-anchor the inflight estimate.
func (b *BBR) endRound(now sim.Time, rtt *RTTEstimator) {
	dur := now.Sub(b.roundStart)
	b.round++
	if dur > 0 {
		bw := float64(b.delivered-b.roundDelivered) / dur.Seconds()
		b.recordBW(bw)
	}
	// Bound inflight drift: losses the interface never itemizes leak
	// into the sent-minus-acked estimate, so clamp it to a generous
	// multiple of the window once per round.
	if lim := 2*b.Window() + 16*b.mss; b.inflight > lim {
		b.inflight = lim
	}
	switch b.state {
	case bbrStartup:
		b.checkFullPipe()
	case bbrDrain:
		b.drainRounds++
		if b.drainRounds >= bbrDrainRoundLimit {
			b.enterProbeBW(now)
		}
	}
}

func (b *BBR) recordBW(bw float64) {
	i := int(b.round % bbrBWFilterLen)
	if b.bwFilter[i].round == b.round {
		if bw > b.bwFilter[i].bw {
			b.bwFilter[i].bw = bw
		}
		return
	}
	b.bwFilter[i] = bwSample{round: b.round, bw: bw}
}

// maxBW returns the windowed-max bottleneck bandwidth estimate in
// bytes/second, 0 before the first sample.
func (b *BBR) maxBW() float64 {
	var m float64
	for _, s := range b.bwFilter {
		if s.bw > 0 && s.round+bbrBWFilterLen > b.round && s.bw > m {
			m = s.bw
		}
	}
	return m
}

// checkFullPipe is the startup exit: three rounds without 25% bandwidth
// growth means the pipe is full.
func (b *BBR) checkFullPipe() {
	bw := b.maxBW()
	if bw >= b.fullBW*bbrFullBWThresh {
		b.fullBW = bw
		b.fullBWCnt = 0
		return
	}
	b.fullBWCnt++
	if b.fullBWCnt >= bbrFullBWRounds {
		b.filled = true
		b.state = bbrDrain
		b.drainRounds = 0
	}
}

// tick runs the time-driven transitions: drain exit, probe-bw gain
// cycling, and probe-rtt entry/exit.
func (b *BBR) tick(now sim.Time, rtt *RTTEstimator) {
	switch b.state {
	case bbrDrain:
		if b.inflight <= b.bdp(rtt, 1.0) {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		if now.Sub(b.cycleStart) >= b.minRTT(rtt) {
			b.cycleIdx = (b.cycleIdx + 1) % len(bbrPacingGainCycle)
			b.cycleStart = now
		}
		if now.Sub(b.lastProbeRTT) >= bbrMinRTTWindow {
			b.state = bbrProbeRTT
			b.priorCwnd = b.cwnd
			d := b.minRTT(rtt)
			if d < bbrProbeRTTDuration {
				d = bbrProbeRTTDuration
			}
			b.probeRTTDone = now.Add(d)
		}
	case bbrProbeRTT:
		if now >= b.probeRTTDone {
			b.cwnd = b.priorCwnd
			b.lastProbeRTT = now
			b.enterProbeBW(now)
		}
	}
}

func (b *BBR) enterProbeBW(now sim.Time) {
	if b.state != bbrProbeRTT {
		// First steady-state entry: start the probe-rtt clock here, not
		// at connection birth, so short flows never collapse their
		// window.
		b.lastProbeRTT = now
	}
	b.state = bbrProbeBW
	b.cycleIdx = 0
	b.cycleStart = now
}

// updateCwnd sizes the window from the model. Startup grows additively
// per acked byte (exponential per round, done in OnPacketAcked); the
// model phases set cwnd directly from the BDP.
func (b *BBR) updateCwnd(rtt *RTTEstimator) {
	if b.state == bbrProbeRTT {
		b.cwnd = b.minCwnd()
		return
	}
	target := b.bdp(rtt, bbrCwndGain)
	if target <= 0 {
		return // no bandwidth estimate yet: keep the growing window
	}
	if b.inRecovery {
		// Packet conservation during a loss episode: do not grow past
		// what the network is currently holding plus one window.
		if lim := b.inflight + b.Window(); target > lim {
			target = lim
		}
	}
	switch b.state {
	case bbrStartup:
		if b.cwnd < target {
			b.cwnd = target
		}
	default:
		b.cwnd = target
	}
	if b.cwnd < b.minCwnd() {
		b.cwnd = b.minCwnd()
	}
}

// bdp returns gain × estimated bandwidth-delay product in bytes, 0 while
// no bandwidth sample exists.
func (b *BBR) bdp(rtt *RTTEstimator, gain float64) int {
	bw := b.maxBW()
	if bw <= 0 {
		return 0
	}
	return int(gain * bw * b.minRTT(rtt).Seconds())
}

func (b *BBR) minRTT(rtt *RTTEstimator) time.Duration {
	if m := rtt.Min(); m > 0 {
		return m
	}
	return InitialRTT
}

// OnCongestionEvent implements CongestionController. BBR's model, not the
// loss, sets the window: a loss only trims the inflight estimate (the
// lost packet left the network) and opens a packet-conservation episode.
func (b *BBR) OnCongestionEvent(now sim.Time, sentAt sim.Time) {
	b.inflight -= b.mss
	if b.inflight < 0 {
		b.inflight = 0
	}
	if b.inRecovery && sentAt <= b.recovery {
		return
	}
	b.inRecovery = true
	b.recovery = now
}

// PacingRate implements PacingRater: the state's pacing gain times the
// bottleneck bandwidth estimate, falling back to startup-gain × initial
// window over the observed RTT before any bandwidth sample exists.
func (b *BBR) PacingRate(rtt *RTTEstimator) float64 {
	bw := b.maxBW()
	if bw <= 0 {
		srtt := rtt.Smoothed()
		if srtt <= 0 {
			srtt = InitialRTT
		}
		return bbrHighGain * float64(b.Window()) / srtt.Seconds()
	}
	return b.pacingGain() * bw
}

func (b *BBR) pacingGain() float64 {
	switch b.state {
	case bbrStartup:
		return bbrHighGain
	case bbrDrain:
		return bbrDrainGain
	case bbrProbeRTT:
		return 1
	default:
		return bbrPacingGainCycle[b.cycleIdx]
	}
}
