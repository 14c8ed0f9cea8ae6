// Package cc implements the congestion controllers and round-trip-time
// estimation shared by the QUIC and TCP transports: CUBIC (RFC 8312, the
// algorithm both the paper's quiche build and the Linux testbed kernels
// used), and an optional pacer.
package cc

import (
	"math"
	"time"

	"starlinkperf/internal/sim"
)

// CongestionController is the sender-side congestion control interface.
// All sizes are in bytes.
type CongestionController interface {
	// Window returns the current congestion window.
	Window() int
	// OnPacketSent informs the controller of bytes leaving.
	OnPacketSent(now sim.Time, bytes int)
	// OnPacketAcked informs the controller of newly acknowledged bytes.
	OnPacketAcked(now sim.Time, bytes int, rtt *RTTEstimator)
	// OnCongestionEvent reacts to a loss of a packet sent at sentAt.
	// Losses inside an ongoing recovery episode are ignored.
	OnCongestionEvent(now sim.Time, sentAt sim.Time)
}

// PacingRater is implemented by controllers that own their pacing rate
// (BBR): the pacer consults it instead of deriving a rate from cwnd/SRTT.
// The rate is in bytes per second.
type PacingRater interface {
	PacingRate(rtt *RTTEstimator) float64
}

// Default CUBIC constants (RFC 8312), matching quiche.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
	// MinWindowPackets is the floor of the congestion window.
	MinWindowPackets = 2
	// InitialWindowPackets is the RFC 9002 initial window.
	InitialWindowPackets = 10
)

// Cubic implements the CUBIC congestion controller with the standard
// TCP-friendly (Reno-estimate) region and fast convergence, operating in
// bytes with an MSS of MaxPayloadSize.
type Cubic struct {
	mss        int
	cwnd       int
	ssthresh   int
	recovery   sim.Time // sent-time threshold of current recovery episode
	inRecovery bool

	// CUBIC state.
	wMax       float64 // window before last reduction, in MSS units
	k          float64 // seconds until the cubic reaches wMax again
	epochStart sim.Time
	haveEpoch  bool
	ackedBytes int // bytes acked since epoch start, for Reno estimate
	wEst       float64

	// HyStart state: per-round minimum RTT (a round is one cwnd of
	// acknowledged bytes), which filters per-packet jitter out of the
	// delay signal.
	hsRoundBytes   int
	hsRoundMin     time.Duration
	hsRoundSamples int
}

// NewCubic returns a CUBIC controller with the standard initial window
// for the given maximum segment size.
func NewCubic(mss int) *Cubic {
	return &Cubic{
		mss:      mss,
		cwnd:     InitialWindowPackets * mss,
		ssthresh: math.MaxInt32,
	}
}

// Window implements CongestionController.
func (c *Cubic) Window() int { return c.cwnd }

// inSlowStart reports whether the window is below the slow-start
// threshold.
func (c *Cubic) inSlowStart() bool { return c.cwnd < c.ssthresh }

// OnPacketSent implements CongestionController.
func (c *Cubic) OnPacketSent(sim.Time, int) {}

// OnPacketAcked implements CongestionController.
func (c *Cubic) OnPacketAcked(now sim.Time, bytes int, rtt *RTTEstimator) {
	if c.inRecovery {
		// Still draining the episode: window frozen until a packet sent
		// after the recovery point is acked, which the connection
		// signals by calling OnCongestionEvent/exitRecovery. To keep
		// the controller self-contained we exit recovery lazily on the
		// first ack after one RTT.
		if now.Sub(c.recovery) > rtt.Smoothed() {
			c.inRecovery = false
		} else {
			return
		}
	}
	if c.inSlowStart() {
		c.cwnd += bytes
		c.hystart(bytes, rtt)
		return
	}
	c.congestionAvoidance(now, bytes, rtt)
}

// hystart implements the delay-based slow-start exit (enabled by default
// in both Linux CUBIC and quiche): once the *round minimum* RTT — robust
// against per-packet jitter — rises a threshold above the global minimum,
// the queue is building and slow start ends before the overflow burst.
func (c *Cubic) hystart(bytes int, rtt *RTTEstimator) {
	if l := rtt.Latest(); c.hsRoundMin == 0 || l < c.hsRoundMin {
		c.hsRoundMin = l
	}
	c.hsRoundBytes += bytes
	c.hsRoundSamples++
	thresh := rtt.Min() / 8
	if thresh < 8*time.Millisecond {
		thresh = 8 * time.Millisecond
	}
	roundDone := c.hsRoundBytes >= c.cwnd
	// Emergency mid-round exit for fast-growing rounds.
	if !roundDone && c.hsRoundSamples >= 32 && c.hsRoundMin > rtt.Min()+3*thresh {
		c.ssthresh = c.cwnd
		return
	}
	if roundDone {
		// Small rounds carry too few samples for the jitter-filtered
		// minimum to be trustworthy; skip the check and keep growing.
		if c.hsRoundSamples >= 16 && c.hsRoundMin > rtt.Min()+thresh {
			c.ssthresh = c.cwnd
		}
		c.hsRoundBytes = 0
		c.hsRoundSamples = 0
		c.hsRoundMin = 0
	}
}

func (c *Cubic) congestionAvoidance(now sim.Time, bytes int, rtt *RTTEstimator) {
	if !c.haveEpoch {
		c.epochStart = now
		c.haveEpoch = true
		c.ackedBytes = 0
		cwndMSS := float64(c.cwnd) / float64(c.mss)
		if cwndMSS < c.wMax {
			c.k = math.Cbrt((c.wMax - cwndMSS) / cubicC)
		} else {
			c.k = 0
			c.wMax = cwndMSS
		}
		c.wEst = cwndMSS
	}
	c.ackedBytes += bytes

	t := now.Sub(c.epochStart).Seconds() + rtt.Smoothed().Seconds()
	wCubic := cubicC*math.Pow(t-c.k, 3) + c.wMax

	// TCP-friendly region (RFC 8312 §4.2): grow a Reno estimate by
	// 3(1-beta)/(1+beta) MSS per cwnd of acknowledged bytes and never
	// fall below it.
	const renoAlpha = 3 * (1 - cubicBeta) / (1 + cubicBeta)
	c.wEst += renoAlpha * float64(bytes) / float64(c.cwnd)

	target := wCubic
	if c.wEst > target {
		target = c.wEst
	}
	cwndMSS := float64(c.cwnd) / float64(c.mss)
	// Growth cap: implementations clamp the cubic target to 1.5x the
	// current window per RTT so deep-convex phases do not blast the
	// bottleneck queue.
	if target > 1.5*cwndMSS {
		target = 1.5 * cwndMSS
	}
	if target > cwndMSS {
		// Increase by (target-cwnd)/cwnd per ACK, as RFC 8312 §4.1.
		inc := (target - cwndMSS) / cwndMSS * float64(bytes)
		c.cwnd += int(inc)
	} else {
		// Minimal growth to stay responsive.
		c.cwnd += int(float64(bytes) * 0.01)
	}
}

// OnCongestionEvent implements CongestionController.
func (c *Cubic) OnCongestionEvent(now sim.Time, sentAt sim.Time) {
	if c.inRecovery && sentAt <= c.recovery {
		return // loss belongs to the current episode
	}
	c.inRecovery = true
	c.recovery = now

	cwndMSS := float64(c.cwnd) / float64(c.mss)
	// Fast convergence (RFC 8312 §4.6).
	if cwndMSS < c.wMax {
		c.wMax = cwndMSS * (1 + cubicBeta) / 2
	} else {
		c.wMax = cwndMSS
	}
	c.cwnd = int(float64(c.cwnd) * cubicBeta)
	if min := MinWindowPackets * c.mss; c.cwnd < min {
		c.cwnd = min
	}
	c.ssthresh = c.cwnd
	c.haveEpoch = false
}

// DefaultBurstPackets is the pacer's default max-burst allowance: after
// an idle period at most this many packet-sized grants leave back to
// back before spacing resumes (Linux fq and quiche use ~10 too).
const DefaultBurstPackets = 10

// Pacer schedules packet departures at the pacing rate when enabled.
// quiche at the paper's commit did not pace, which the paper identifies
// as the cause of the elevated upload RTTs for 25 kB messages — so pacing
// defaults to off and exists for the modern transport profile and the
// ablation bench.
//
// The implementation is a token bucket holding at most BurstPackets
// packets' worth of bytes: tokens refill at the pacing rate, a grant
// consumes the packet's size, and a deferred packet consumes nothing — so
// retrying after the returned delay is charged exactly once. (The
// previous arrival-spacing implementation advanced its departure clock on
// every call, double-charging packets the caller deferred and re-offered,
// which paced deferred flows at half the configured rate.)
type Pacer struct {
	Enabled bool
	// BurstPackets caps the bucket depth — the number of back-to-back
	// full-size departures allowed after idle (and right after
	// slow-start-exit cwnd spurts). Zero means DefaultBurstPackets.
	BurstPackets int

	tokens     float64 // bytes available for immediate departure
	lastRefill sim.Time
	primed     bool
}

// pacerGain scales the cwnd/SRTT-derived pacing rate (the common 1.25).
// A controller that provides its own rate (PacingRater) is not scaled.
const pacerGain = 1.25

// Delay returns how long after now the next packet of the given size may
// leave, pacing at pacerGain × cwnd/SRTT.
func (p *Pacer) Delay(now sim.Time, size, cwnd int, rtt *RTTEstimator) time.Duration {
	if !p.Enabled {
		return 0
	}
	srtt := rtt.Smoothed()
	if srtt <= 0 || cwnd <= 0 {
		return 0
	}
	return p.DelayRate(now, size, pacerGain*float64(cwnd)/srtt.Seconds())
}

// DelayFor is the profile-aware entry point shared by the QUIC and TCP
// send paths: controllers that own a pacing rate (BBR) are consulted via
// PacingRater, everything else paces at pacerGain × cwnd/SRTT.
func (p *Pacer) DelayFor(now sim.Time, size int, ctl CongestionController, rtt *RTTEstimator) time.Duration {
	if !p.Enabled {
		return 0
	}
	if pr, ok := ctl.(PacingRater); ok {
		return p.DelayRate(now, size, pr.PacingRate(rtt))
	}
	return p.Delay(now, size, ctl.Window(), rtt)
}

// DelayRate returns how long after now the next packet of the given size
// may leave at an explicit rate in bytes per second. A zero return grants
// the departure (and consumes its tokens); a positive return defers it
// without consuming anything.
func (p *Pacer) DelayRate(now sim.Time, size int, rate float64) time.Duration {
	if !p.Enabled || rate <= 0 || size <= 0 {
		return 0
	}
	burst := p.BurstPackets
	if burst <= 0 {
		burst = DefaultBurstPackets
	}
	depth := float64(burst * size)
	if !p.primed {
		p.primed = true
		p.tokens = depth
		p.lastRefill = now
	} else if now > p.lastRefill {
		p.tokens += now.Sub(p.lastRefill).Seconds() * rate
		p.lastRefill = now
	}
	if p.tokens > depth {
		p.tokens = depth
	}
	// The grant comparison tolerates a nanobyte of float error and the
	// deferral rounds up to whole nanoseconds, so a caller that waits
	// exactly the returned delay is always granted on retry instead of
	// spinning on a sub-nanosecond deficit.
	if p.tokens >= float64(size)-1e-6 {
		p.tokens -= float64(size)
		if p.tokens < 0 {
			p.tokens = 0
		}
		return 0
	}
	return time.Duration(math.Ceil((float64(size) - p.tokens) / rate * float64(time.Second)))
}

// Fixed is a constant-window controller used by satellite PEPs on the
// provisioned space segment: the operator knows the link rate, so the
// proxy clamps its window to the provisioned bandwidth-delay product and
// ignores loss (capacity is guaranteed by admission control, and the
// per-subscriber shaper enforces fairness).
type Fixed struct{ w int }

// NewFixed returns a controller with a constant window of w bytes.
func NewFixed(w int) *Fixed { return &Fixed{w: w} }

// Window implements CongestionController.
func (f *Fixed) Window() int { return f.w }

// OnPacketSent implements CongestionController.
func (f *Fixed) OnPacketSent(sim.Time, int) {}

// OnPacketAcked implements CongestionController.
func (f *Fixed) OnPacketAcked(sim.Time, int, *RTTEstimator) {}

// OnCongestionEvent implements CongestionController.
func (f *Fixed) OnCongestionEvent(sim.Time, sim.Time) {}
