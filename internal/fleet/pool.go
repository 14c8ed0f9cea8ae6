package fleet

import (
	"starlinkperf/internal/obs"
	"starlinkperf/internal/stats"
)

// An epoch is one walk over the populated cells on the Fleet's
// sim.Workers, in the cell-aligned ranges New bound: each cell assigns its
// terminals and accounts them into one epochScratch per worker, drained in
// worker order by integer merges, so results, metrics and traces are
// bit-identical for any worker count
// (TestEpochCampaignWorkerInvariance; TestRunReferenceEquivalence).

// epochScratch is one worker's private state: per-region tallies and
// distributions, the candidate list, beam list and terminal flags of the
// cell being walked, the gateway cache, and its share of the scan
// telemetry (walk drains it at the barrier). Every field is
// integer-counted, so draining scratches into the shared accumulators in
// worker order reproduces the sequential accumulation bit-for-bit.
// Distribution geometries mirror initAccum; keep them in sync.
type epochScratch struct {
	scan      ScanStats
	samples   []int64
	outages   []int64
	handovers []int64
	latency   []stats.FixedDist
	peak      []stats.FixedDist
	offPeak   []stats.FixedDist
	hLatency  []*obs.Histogram // nil entries when observability is off
	hTput     []*obs.Histogram
	cands     []cand
	gwCache   []gwEntry // by flat satellite id; a slot is valid when stamped with the epoch's stamp
	satList   []int32
	satCnt    []int32
	flags     []uint8 // one per terminal of the cell being walked, sized to the largest
}

func (f *Fleet) newScratch() epochScratch {
	nr := len(f.regions)
	sc := epochScratch{
		samples:   make([]int64, nr),
		outages:   make([]int64, nr),
		handovers: make([]int64, nr),
		latency:   make([]stats.FixedDist, nr),
		peak:      make([]stats.FixedDist, nr),
		offPeak:   make([]stats.FixedDist, nr),
		hLatency:  make([]*obs.Histogram, nr),
		hTput:     make([]*obs.Histogram, nr),
		cands:     make([]cand, 0, 64),
		gwCache:   make([]gwEntry, len(f.satPos)),
		satList:   make([]int32, 0, 64),
		satCnt:    make([]int32, 0, 64),
		flags:     make([]uint8, f.maxCell),
	}
	for ri := 0; ri < nr; ri++ {
		sc.latency[ri] = stats.NewFixedDist(0.5, 600)
		sc.peak[ri] = stats.NewFixedDist(1, 500)
		sc.offPeak[ri] = stats.NewFixedDist(1, 500)
		if f.cfg.Obs != nil {
			sc.hLatency[ri] = obs.NewHistogram(obs.DurationBounds())
			sc.hTput[ri] = obs.NewHistogram(obs.SizeBounds())
		}
	}
	return sc
}

// A terminal's flags for the epoch being walked: the first pass over a
// cell writes them, the second reads them.
const (
	active   uint8 = 1 << iota // the activity coin came up
	peakHour                   // active, served, and local 18:00-23:00
	handover                   // served by another satellite than entering the epoch
)

// walkCell runs the epoch for populated cell k into sc. It first admits
// the cell's candidates into sc's list, best bound first (admit). Pass 1
// gives every terminal its satellite (assign, against the satellite it
// held entering the epoch), flips its activity coin and counts, per
// distinct serving satellite, the active served terminals sharing its beam
// over the cell. Pass 2 accounts every terminal of the cell.
func (f *Fleet) walkCell(sc *epochScratch, k int) {
	c := f.popCells[k]
	lo, hi := int(f.cellStart[c]), int(f.cellStart[c+1])
	sc.cands = f.admit(k, sc.cands[:0])
	cands := sc.cands
	sc.satList, sc.satCnt = sc.satList[:0], sc.satCnt[:0]
	var passed, seeded, seedWon int64
	for t := lo; t < hi; t++ {
		o := f.site(t)
		prev := f.sat[t]
		best, n := f.assign(&o, prev, cands)
		passed += n
		if prev >= 0 {
			seeded++
			if best == prev {
				seedWon++
			}
		}
		f.finishAssignment(sc, t, best)
		sc.flags[t-lo] = f.flipCoin(sc, t, prev)
	}
	sc.scan.CandEntries += len(cands)
	sc.scan.Listed += int64(len(cands)) * int64(hi-lo)
	sc.scan.BoundPassed += passed
	sc.scan.Evaluated += passed + seeded
	sc.scan.SeedWon += seedWon
	f.accountCell(sc, lo, hi)
}

// flipCoin returns terminal t's flags for the epoch and, if it is active
// and served, counts it as a sharer of its satellite's beam. The coin is
// draw < activeProb(local hour); the local hour (a Mod) is computed only
// when the draw lies inside activeProb's range, where it decides it, or
// when the terminal is active and served, where pass 2 files its share by
// the hour. Inside the range, the hour's bracket settles the coin, and
// the cosine is computed only for a draw inside the bracket (activeAt).
func (f *Fleet) flipCoin(sc *epochScratch, t int, prev int32) uint8 {
	var fl uint8
	s := f.sat[t]
	if f.epoch > 0 && prev >= 0 && s != prev {
		fl = handover
	}
	draw := activeDraw(f.seed[t], int64(f.epoch))
	if draw >= activeProbMax {
		return fl
	}
	h := -1.0
	if draw >= activeProbMin {
		h = localHour(f.utcHours, f.lon[t])
		if !activeAt(h, draw) {
			return fl
		}
	}
	fl |= active
	if s < 0 || f.delayNs[t] < 0 {
		return fl
	}
	if h < 0 {
		h = localHour(f.utcHours, f.lon[t])
	}
	if h >= 18 && h < 23 {
		fl |= peakHour
	}
	for k, x := range sc.satList {
		if x == s {
			sc.satCnt[k]++
			return fl
		}
	}
	sc.satList = append(sc.satList, s)
	sc.satCnt = append(sc.satCnt, 1)
	return fl
}

// accountCell is pass 2: it accounts the terminals [lo, hi) of the cell
// just assigned into sc — an outage, or a latency sample, a handover and,
// when active, the terminal's share of its satellite's beam, split evenly
// among the beam's sharers over the cell and capped per terminal.
func (f *Fleet) accountCell(sc *epochScratch, lo, hi int) {
	for t := lo; t < hi; t++ {
		ri := f.region[t]
		if f.delayNs[t] < 0 {
			sc.outages[ri]++
			continue
		}
		rttNs := 2 * int64(f.delayNs[t])
		sc.samples[ri]++
		sc.latency[ri].Observe(float64(rttNs) / 1e6)
		sc.hLatency[ri].Observe(rttNs)
		fl := sc.flags[t-lo]
		if fl&handover != 0 {
			sc.handovers[ri]++
		}
		if fl&active == 0 {
			continue
		}
		share := maxTermMbps
		for k, s := range sc.satList {
			if s == f.sat[t] {
				if per := f.cfg.BeamMbps / float64(sc.satCnt[k]); per < share {
					share = per
				}
				break
			}
		}
		if fl&peakHour != 0 {
			sc.peak[ri].Observe(share)
		} else {
			sc.offPeak[ri].Observe(share)
		}
		sc.hTput[ri].Observe(int64(share * 1000))
	}
}

// mergeScratch drains one worker's scratch into the campaign
// accumulators and the per-epoch trace tallies, leaving the scratch
// zeroed for the next epoch. Purely integer adds — commutative and
// associative — so the drain order cannot leak into any export.
func (f *Fleet) mergeScratch(sc *epochScratch) {
	for ri := range f.acc {
		a := &f.acc[ri]
		if v := sc.outages[ri]; v != 0 {
			a.outages += v
			a.cOutage.Add(uint64(v))
			f.epochOut[ri] += v
			sc.outages[ri] = 0
		}
		if v := sc.samples[ri]; v != 0 {
			a.samples += v
			a.cSamples.Add(uint64(v))
			sc.samples[ri] = 0
		}
		if v := sc.handovers[ri]; v != 0 {
			a.handovers += v
			a.cHandover.Add(uint64(v))
			f.epochHo[ri] += v
			sc.handovers[ri] = 0
		}
		sc.latency[ri].DrainInto(&a.latency)
		sc.peak[ri].DrainInto(&a.peak)
		sc.offPeak[ri].DrainInto(&a.offPeak)
		sc.hLatency[ri].DrainInto(a.hLatencyNs)
		sc.hTput[ri].DrainInto(a.hTputKbps)
	}
}

// Close stops the worker pool's goroutines (idempotent; a closed Fleet runs
// epochs on the caller). Whoever calls New closes; Run and Traffic.Run do.
func (f *Fleet) Close() { f.workers.Close() }
