package netem

import (
	"time"

	"starlinkperf/internal/sim"
)

// LossModel decides, per packet, whether the medium loses it. Models are
// consulted at the instant the packet would be put on the wire.
type LossModel interface {
	// Lost reports whether a packet transmitted at now is lost.
	Lost(now sim.Time) bool
}

// BernoulliLoss drops each packet independently with probability P.
type BernoulliLoss struct {
	P   float64
	Rng *sim.RNG
}

// Lost implements LossModel.
func (b *BernoulliLoss) Lost(sim.Time) bool { return b.Rng.Bool(b.P) }

// GilbertElliott is the classic two-state Markov burst-loss model: a Good
// state with loss probability LossGood and a Bad state with LossBad;
// transitions Good->Bad with PGB and Bad->Good with PBG per packet.
//
// The stationary loss rate is
//
//	pi_B = PGB / (PGB + PBG)
//	loss = (1-pi_B)*LossGood + pi_B*LossBad
//
// which the campaign calibration uses to hit the paper's Table 2 ratios
// while keeping the burstiness of Figure 4.
type GilbertElliott struct {
	PGB, PBG          float64
	LossGood, LossBad float64
	Rng               *sim.RNG
	bad               bool
}

// Lost implements LossModel.
func (g *GilbertElliott) Lost(sim.Time) bool {
	if g.bad {
		if g.Rng.Bool(g.PBG) {
			g.bad = false
		}
	} else {
		if g.Rng.Bool(g.PGB) {
			g.bad = true
		}
	}
	if g.bad {
		return g.Rng.Bool(g.LossBad)
	}
	return g.Rng.Bool(g.LossGood)
}

// StationaryLossRate returns the analytic long-run loss probability of the
// model, used by tests and by profile fitting.
func (g *GilbertElliott) StationaryLossRate() float64 {
	denom := g.PGB + g.PBG
	if denom == 0 {
		return g.LossGood
	}
	piB := g.PGB / denom
	return (1-piB)*g.LossGood + piB*g.LossBad
}

// Outage is a closed interval of link downtime.
type Outage struct {
	Start sim.Time
	End   sim.Time
}

// OutageSchedule drops every packet that would be on the wire during one
// of its outages. The LEO simulator generates these from handover gaps
// and rare connectivity losses (the paper's >1 s loss events).
type OutageSchedule struct {
	// Outages must be sorted by Start and non-overlapping.
	Outages []Outage
	cursor  int
}

// Lost implements LossModel.
func (o *OutageSchedule) Lost(now sim.Time) bool {
	return o.Down(now)
}

// Down reports whether the link is inside an outage at now. Queries must
// be issued in non-decreasing time order (the simulator guarantees this);
// the cursor makes the check O(1) amortized.
func (o *OutageSchedule) Down(now sim.Time) bool {
	for o.cursor < len(o.Outages) && o.Outages[o.cursor].End < now {
		o.cursor++
	}
	if o.cursor >= len(o.Outages) {
		return false
	}
	out := o.Outages[o.cursor]
	return now >= out.Start && now <= out.End
}

// PoissonOutages draws a deterministic outage schedule over [0, horizon):
// events arrive with the given mean interarrival time and last for a
// duration drawn log-normally around meanDuration.
func PoissonOutages(rng *sim.RNG, horizon sim.Time, meanInterarrival, meanDuration time.Duration) *OutageSchedule {
	var sched OutageSchedule
	t := sim.Time(0)
	for {
		gap := time.Duration(rng.Exponential(float64(meanInterarrival)))
		t = t.Add(gap)
		if t >= horizon {
			break
		}
		// Log-normal with sigma 0.5 around the requested mean duration.
		const sigma = 0.5
		mu := float64(meanDuration) // mean of exp(mu') with correction below
		d := time.Duration(rng.LogNormal(0, sigma) * mu)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		sched.Outages = append(sched.Outages, Outage{Start: t, End: t.Add(d)})
		t = t.Add(d)
	}
	return &sched
}

// CompositeLoss loses a packet when any of its submodels does.
type CompositeLoss []LossModel

// Lost implements LossModel.
func (c CompositeLoss) Lost(now sim.Time) bool {
	lost := false
	for _, m := range c {
		// Consult every model so stateful models (Gilbert-Elliott)
		// advance regardless of short-circuiting.
		if m.Lost(now) {
			lost = true
		}
	}
	return lost
}
