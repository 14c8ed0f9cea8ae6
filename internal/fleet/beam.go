package fleet

import (
	"math"
	"sort"

	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/stats"
)

// regionAccum aggregates one region's campaign outcome. Only the
// single-threaded merge pass (mergeScratch) writes it, so plain fields
// suffice. Distributions use stats.FixedDist —
// bounded memory and deterministic quantiles over millions of
// terminal-epoch observations.
type regionAccum struct {
	terminals  int
	samples    int64
	outages    int64
	handovers  int64
	latency    stats.FixedDist // RTT in ms
	peak       stats.FixedDist // per-terminal Mbps share, local 18:00-23:00
	offPeak    stats.FixedDist
	cSamples   *obs.Counter
	cOutage    *obs.Counter
	cHandover  *obs.Counter
	hLatencyNs *obs.Histogram
	hTputKbps  *obs.Histogram
	subj       obs.Subj
}

func (f *Fleet) initAccum() {
	f.acc = make([]regionAccum, len(f.regions))
	for ri, name := range f.regions {
		a := &f.acc[ri]
		// 0.5 ms × 600 buckets spans RTTs to 300 ms; 1 Mbps × 500
		// spans shares past the per-terminal cap.
		a.latency = stats.NewFixedDist(0.5, 600)
		a.peak = stats.NewFixedDist(1, 500)
		a.offPeak = stats.NewFixedDist(1, 500)
		if f.cfg.Obs != nil {
			reg := f.cfg.Obs.Registry()
			a.cSamples = reg.Counter("fleet." + name + ".samples")
			a.cOutage = reg.Counter("fleet." + name + ".outage_term_epochs")
			a.cHandover = reg.Counter("fleet." + name + ".handovers")
			a.hLatencyNs = reg.Histogram("fleet."+name+".latency_ns", obs.DurationBounds())
			a.hTputKbps = reg.Histogram("fleet."+name+".throughput_kbps", obs.SizeBounds())
			a.subj = f.cfg.Obs.Tracer().Subject("fleet/" + name)
		}
	}
	for _, r := range f.region {
		f.acc[r].terminals++
	}
}

// activeDraw is the per-epoch activity coin: one sim.SplitMix64 step over
// (terminal seed, epoch). Deliberately not sim.DeriveSeed — the fnv hash
// there allocates, and this runs per terminal per epoch.
func activeDraw(seed uint64, epoch int64) float64 {
	return float64(sim.SplitMix64(seed+0x9e3779b97f4a7c15*uint64(epoch))>>11) / (1 << 53)
}

// localHour returns the mean-solar local hour-of-day at a longitude.
func localHour(utcHours, lonDeg float64) float64 {
	h := math.Mod(utcHours+lonDeg/15, 24)
	if h < 0 {
		h += 24
	}
	return h
}

// activeProb is the diurnal activity model: a cosine over the local day
// peaking at 20:00 (75% of terminals active) with an 08:00 trough (30%),
// the load shape behind the Multifaceted paper's peak-hour dip.
func activeProb(hLocal float64) float64 {
	return activeProbOfCos(math.Cos(2 * math.Pi * (hLocal - 20) / 24))
}

func activeProbOfCos(c float64) float64 { return 0.30 + 0.225*(1+c) }

// activeProbMin and activeProbMax are the smallest and largest values
// activeProb returns: math.Cos stays within [-1, 1] and float64 addition
// and multiplication by a positive number are monotone, so the formula at
// the two ends brackets it at every hour. They come from the same run-time
// operations on variables — a constant expression would be folded at
// arbitrary precision and could round the other way. A draw below the
// minimum is active and one at or above the maximum idle, whatever the hour.
var (
	cosLo, cosHi  = -1.0, 1.0
	activeProbMin = activeProbOfCos(cosLo)
	activeProbMax = activeProbOfCos(cosHi)
)

// activeBins splits the local day into the coin's bracket bins, each
// 24/activeBins hours (an exact binary fraction) wide.
const activeBins = 1024

// activePad widens every bracket: it only has to dominate the rounding
// of activeProb and of the bin index (both near 1e-16).
const activePad = 1e-9

// activeBracket holds, per bin of the local day, a lower and an upper
// bound on activeProb over the bin. activeProb is monotone between 08:00
// and 20:00 and between 20:00 and 08:00, so over a bin that holds neither
// its extremes are the values at the bin's edges; the bins holding 08:00
// and 20:00 take activeProbMin and activeProbMax instead. The pad covers
// the formula's rounding between the edges and an hour whose index
// rounds into a neighbouring bin.
var activeBracket = func() (b [activeBins]struct{ lo, hi float64 }) {
	const w = 24.0 / activeBins
	for i := range b {
		h0, h1 := float64(i)*w, float64(i+1)*w
		p0, p1 := activeProb(h0), activeProb(h1)
		lo, hi := min(p0, p1), max(p0, p1)
		if h0 <= 8 && 8 <= h1 {
			lo = activeProbMin
		}
		if h0 <= 20 && 20 <= h1 {
			hi = activeProbMax
		}
		b[i].lo, b[i].hi = lo-activePad, hi+activePad
	}
	return b
}()

// activeAt reports draw < activeProb(h) for a local hour h in [0, 24]:
// from h's bracket when the draw lies outside it (below the bracket the
// draw is under activeProb(h), at or above it not), and from the cosine
// only inside it, a fraction of a percent of the draws. The index is a
// float product — activeBins/24 as integers would be 42 — and h = 24,
// which localHour can return, falls in the last bin.
func activeAt(h, draw float64) bool {
	b := &activeBracket[min(int(h*(activeBins/24.0)), activeBins-1)]
	if draw < b.lo {
		return true
	}
	if draw >= b.hi {
		return false
	}
	return draw < activeProb(h)
}

// result folds the accumulators into the per-region report, regions
// sorted by name.
func (f *Fleet) result(epochs int) *Result {
	res := &Result{
		Terminals:  len(f.sat),
		Epochs:     epochs,
		Cells:      f.grid.nCells,
		Satellites: len(f.satPos),
	}
	for ri, name := range f.regions {
		a := &f.acc[ri]
		rr := RegionResult{
			Region:           name,
			Terminals:        a.terminals,
			Samples:          a.samples,
			OutageTermEpochs: a.outages,
			Handovers:        a.handovers,
			LatencyP50Ms:     a.latency.Quantile(0.50),
			LatencyP95Ms:     a.latency.Quantile(0.95),
			PeakMbpsP50:      a.peak.Quantile(0.50),
			OffPeakMbpsP50:   a.offPeak.Quantile(0.50),
		}
		if te := int64(a.terminals) * int64(epochs); te > 0 {
			rr.OutagePct = 100 * float64(a.outages) / float64(te)
		}
		// The dip is meaningful only when the campaign's local-time span
		// produced samples in both windows; a short run that never enters
		// (or never leaves) a region's 18:00-23:00 window reports 0.
		if a.peak.N() > 0 && a.offPeak.N() > 0 && rr.OffPeakMbpsP50 > 0 {
			rr.PeakDipPct = 100 * (1 - rr.PeakMbpsP50/rr.OffPeakMbpsP50)
		}
		res.Regions = append(res.Regions, rr)
	}
	sort.Slice(res.Regions, func(i, j int) bool {
		return res.Regions[i].Region < res.Regions[j].Region
	})
	return res
}
