// Package core builds the paper's testbed inside the emulator — the
// PC-Starlink / PC-Wired / PC-SatCom vantage points, the Starlink LEO
// access (bent-pipe through the simulated Gen1 shell), the GEO SatCom
// access with its dual PEP, the anchor fleet, the Ookla-like servers, the
// UCLouvain QUIC server and the web corpus — and orchestrates the
// measurement campaigns that regenerate every table and figure.
package core

import (
	"math"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/sim"
)

// StarlinkParams models the Starlink access link. Everything the paper
// measures on that link — the latency floor and body, the loss regimes,
// the throughput envelope, bufferbloat under load — derives from these
// parameters plus the constellation geometry.
type StarlinkParams struct {
	// The allocated rates are log-normal around the medians with two
	// variance components: a slow one (per hour — cell load, weather)
	// and a fast one (per 15 s epoch — scheduler regrants).
	DownMbpsMedian, DownSigma float64
	UpMbpsMedian, UpSigma     float64
	// SigmaFast is the per-epoch component (applies to both directions).
	SigmaFast float64
	// Epoch is the capacity/path reallocation interval (15 s).
	Epoch time.Duration
	// AccessOverhead is the fixed per-direction processing + framing
	// delay of the bent pipe.
	AccessOverhead time.Duration
	// JitterDown/Up are half-normal per-packet scheduling jitter scales
	// (uplink slot grants make the uplink jitter larger).
	JitterDown, JitterUp time.Duration
	// QueueDown/Up are the CPE/gateway buffer depths; they set the
	// bufferbloat the paper observes under load.
	QueueDownBytes, QueueUpBytes int
	// Medium loss: a bursty Gilbert-Elliott process. The uplink has its
	// own (higher) rate: contention-granted uplink slots lose more.
	MediumLossPct   float64
	MediumLossPctUp float64
	MediumBurstMean float64
	// Handover micro-outages: probability per epoch boundary and
	// duration bounds.
	HandoverOutageProb float64
	HandoverOutageMin  time.Duration
	HandoverOutageMax  time.Duration
	// Rare long outages (the paper's >1 s events): probability per
	// epoch and duration bounds.
	LongOutageProb float64
	LongOutageMin  time.Duration
	LongOutageMax  time.Duration
}

// DefaultStarlinkParams returns the calibrated parameters (see
// EXPERIMENTS.md for the calibration against the paper's observables).
func DefaultStarlinkParams() StarlinkParams {
	return StarlinkParams{
		DownMbpsMedian: 205, DownSigma: 0.24,
		UpMbpsMedian: 18, UpSigma: 0.22,
		SigmaFast:          0.08,
		Epoch:              15 * time.Second,
		AccessOverhead:     4 * time.Millisecond,
		JitterDown:         8 * time.Millisecond,
		JitterUp:           10 * time.Millisecond,
		QueueDownBytes:     2560 << 10,
		QueueUpBytes:       384 << 10,
		MediumLossPct:      0.03,
		MediumLossPctUp:    0.02,
		MediumBurstMean:    8,
		HandoverOutageProb: 0.13,
		HandoverOutageMin:  150 * time.Millisecond,
		HandoverOutageMax:  600 * time.Millisecond,
		LongOutageProb:     0.0012,
		LongOutageMin:      1 * time.Second,
		LongOutageMax:      4 * time.Second,
	}
}

// splitmix64 hashes an epoch number into deterministic per-epoch
// randomness, so outage and rate decisions need no precomputed schedule.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// epochRand returns a uniform float64 in [0,1) and a second independent
// one for the given (seed, epoch, salt).
func epochRand(seed, epoch, salt uint64) (float64, float64) {
	h1 := splitmix64(seed ^ epoch*0x9e3779b97f4a7c15 ^ salt)
	h2 := splitmix64(h1)
	return float64(h1>>11) / (1 << 53), float64(h2>>11) / (1 << 53)
}

// starlinkAccess bundles the time-varying behaviour of the access link.
type starlinkAccess struct {
	params   StarlinkParams
	terminal *leo.Terminal
	seed     uint64
	// popPos maps gateway PoP names to PoP site positions for the
	// gateway→exit terrestrial leg.
	popPos map[string]geo.LatLon
	// extraDelay lets scenario events (the paper's late-April load
	// episode) add RTT for a window of the campaign.
	extraDelay func(at sim.Time) time.Duration

	// Per-packet memos: both links ask delay and down for every packet,
	// and the answers' expensive parts change once per gateway move and
	// once per epoch. fiberGW is the gateway fiberLeg was computed for;
	// outageEp the epoch outages/nOutages belong to (valid when outageOK).
	fiberGW  *leo.Gateway
	fiberLeg time.Duration
	outages  [2]outageWindow
	nOutages int
	outageEp uint64
	outageOK bool
}

func (a *starlinkAccess) epochOf(at sim.Time) uint64 {
	return uint64(int64(at) / int64(a.params.Epoch))
}

// delay is the one-way propagation + processing delay at an instant:
// geometric bent pipe + gateway→PoP fiber + fixed overhead (+ scenario
// extra).
func (a *starlinkAccess) delay(at sim.Time) time.Duration {
	d, ok := a.terminal.DelayAt(at)
	if !ok {
		d = 30 * time.Millisecond // no-coverage fallback; outages drop anyway
	}
	if gw := a.terminal.GatewayAt(at); gw != nil {
		if gw != a.fiberGW {
			a.fiberGW, a.fiberLeg = gw, 0
			if pop, ok := a.popPos[gw.PoP]; ok {
				a.fiberLeg = geo.FiberRouteDelay(gw.Pos, pop, 1.6)
			}
		}
		d += a.fiberLeg
	}
	d += a.params.AccessOverhead
	if a.extraDelay != nil {
		d += a.extraDelay(at)
	}
	return d
}

// outageWindow is one outage interval within an epoch, as offsets from
// the epoch start. long distinguishes the paper's rare >1 s events from
// handover micro-outages.
type outageWindow struct {
	start, dur time.Duration
	long       bool
}

// epochOutages derives the outage windows of an epoch from the hashed
// per-epoch randomness: an optional handover micro-outage at the epoch
// start and an optional rare long outage somewhere inside it. It is the
// single computation behind both the per-packet down() predicate and the
// observability epoch sampler, so the trace reports exactly the windows
// the link enforces. Returns by value (at most two windows) so the
// per-packet path stays allocation-free.
func (a *starlinkAccess) epochOutages(ep uint64) (wins [2]outageWindow, n int) {
	r1, r2 := epochRand(a.seed, ep, 0x48)
	if r1 < a.params.HandoverOutageProb {
		dur := a.params.HandoverOutageMin +
			time.Duration(r2*float64(a.params.HandoverOutageMax-a.params.HandoverOutageMin))
		wins[n] = outageWindow{start: 0, dur: dur}
		n++
	}
	r3, r4 := epochRand(a.seed, ep, 0x10)
	if r3 < a.params.LongOutageProb {
		dur := a.params.LongOutageMin +
			time.Duration(r4*float64(a.params.LongOutageMax-a.params.LongOutageMin))
		if dur > a.params.Epoch {
			dur = a.params.Epoch
		}
		start := time.Duration(r4 * float64(a.params.Epoch-dur))
		wins[n] = outageWindow{start: start, dur: dur, long: true}
		n++
	}
	return wins, n
}

// down reports whether the access link is inside an outage at an
// instant: per-epoch hashed handover micro-outages and rare long ones.
func (a *starlinkAccess) down(at sim.Time) bool {
	ep := a.epochOf(at)
	into := time.Duration(int64(at) - int64(ep)*int64(a.params.Epoch))
	if !a.outageOK || ep != a.outageEp {
		a.outages, a.nOutages = a.epochOutages(ep)
		a.outageEp, a.outageOK = ep, true
	}
	for _, w := range a.outages[:a.nOutages] {
		if into >= w.start && into < w.start+w.dur {
			return true
		}
	}
	return false
}

// rates returns the allocated (down, up) rates for an epoch: log-normal
// around the medians with a slow per-hour component and a fast per-epoch
// component.
func (a *starlinkAccess) rates(at sim.Time) (downBps, upBps float64) {
	ep := a.epochOf(at)
	hour := uint64(int64(at) / int64(time.Hour))
	s1, s2 := gaussPair(a.seed, hour, 0x5107)
	g1, g2 := gaussPair(a.seed, ep, 0x77)
	down := a.params.DownMbpsMedian * math.Exp(a.params.DownSigma*s1+a.params.SigmaFast*g1)
	up := a.params.UpMbpsMedian * math.Exp(a.params.UpSigma*s2+a.params.SigmaFast*g2)
	return down * 1e6, up * 1e6
}

// gaussPair derives two standard normal samples from epoch hashing
// (Box-Muller on hashed uniforms).
func gaussPair(seed, epoch, salt uint64) (float64, float64) {
	u1, u2 := epochRand(seed, epoch, salt)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	r := math.Sqrt(-2 * math.Log(u1))
	return r * math.Cos(2*math.Pi*u2), r * math.Sin(2*math.Pi*u2)
}
