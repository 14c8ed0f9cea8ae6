package fleet

import (
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/stats"
)

// Both epoch phases run on the Fleet's sim.Workers: reassignment in
// assignBlock blocks, observation over cell-aligned ranges into one
// epochScratch per worker, drained in worker order by integer merges, so
// results, metrics and traces are bit-identical for any worker count
// (TestEpochCampaignWorkerInvariance; TestRunReferenceEquivalence).

// epochScratch is one worker's private accumulation state: for the
// observation phase per-region tallies and distributions plus the
// per-cell beam list, for the assignment phase its share of the scan
// telemetry (ReassignAt drains it at the barrier). Every field is
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
	satList   []int32
	satCnt    []int32
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
		satList:   make([]int32, 0, 64),
		satCnt:    make([]int32, 0, 64),
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

// observeEpoch runs the beam-contention and accounting pass for epoch e:
// per cell, concurrently active terminals served by the same satellite
// split one beam's capacity. The per-cell accounting goes into scratch,
// fanned out over the worker pool, then every scratch is
// drained into the shared accumulators and the epoch trace is emitted.
func (f *Fleet) observeEpoch(e int, at sim.Time) {
	utcHours := at.Seconds() / 3600
	for ri := range f.epochOut {
		f.epochOut[ri] = 0
		f.epochHo[ri] = 0
	}
	f.obsEpoch, f.obsUTC = e, utcHours
	f.workers.Run(len(f.obsRanges)-1, f.observeBody)
	for w := range f.scratch {
		f.mergeScratch(&f.scratch[w])
	}
	if f.cfg.Obs != nil {
		tr := f.cfg.Obs.Tracer()
		for ri := range f.acc {
			tr.Emit(at, obs.KindFleetEpoch, f.acc[ri].subj, f.epochOut[ri], f.epochHo[ri])
		}
	}
	copy(f.prevSat, f.sat)
}

// observeRange accounts terminals [lo, hi) — always a whole number of
// cells — of the staged epoch into sc, cell by cell.
func (f *Fleet) observeRange(sc *epochScratch, e int, utcHours float64, lo, hi int) {
	for t := lo; t < hi; {
		ce := int(f.cellStart[f.cell[t]+1])
		f.observeCellInto(sc, e, utcHours, t, ce)
		t = ce
	}
}

// Per-terminal activity for the epoch being observed: pass 1 of
// observeCellInto writes it, pass 2 reads it.
const (
	idle uint8 = iota
	activeOffPeak
	activePeak // local 18:00-23:00
)

// observeCellInto accounts the one cell holding terminals [lo, hi) into sc.
func (f *Fleet) observeCellInto(sc *epochScratch, e int, utcHours float64, lo, hi int) {
	// Pass 1: flip every terminal's activity coin and, per distinct serving
	// satellite, count active served terminals sharing its beam over this
	// cell. The coin is draw < activeProb(local hour); the local hour (a
	// Mod) and the cosine are computed only when the draw lies inside
	// activeProb's range, where they decide it, or when the terminal is
	// active and served, where pass 2 files its share by the hour.
	sc.satList = sc.satList[:0]
	sc.satCnt = sc.satCnt[:0]
	for t := lo; t < hi; t++ {
		draw := activeDraw(f.seed[t], int64(e))
		f.active[t] = idle
		if draw >= activeProbMax {
			continue
		}
		h := -1.0
		if draw >= activeProbMin {
			h = localHour(utcHours, f.lon[t])
			if draw >= activeProb(h) {
				continue
			}
		}
		f.active[t] = activeOffPeak
		if f.sat[t] < 0 || f.delayNs[t] < 0 {
			continue
		}
		if h < 0 {
			h = localHour(utcHours, f.lon[t])
		}
		if h >= 18 && h < 23 {
			f.active[t] = activePeak
		}
		found := false
		for k, s := range sc.satList {
			if s == f.sat[t] {
				sc.satCnt[k]++
				found = true
				break
			}
		}
		if !found {
			sc.satList = append(sc.satList, f.sat[t])
			sc.satCnt = append(sc.satCnt, 1)
		}
	}
	// Pass 2: account every terminal of the cell.
	for t := lo; t < hi; t++ {
		ri := f.region[t]
		if f.delayNs[t] < 0 {
			sc.outages[ri]++
			continue
		}
		rttNs := 2 * f.delayNs[t]
		sc.samples[ri]++
		sc.latency[ri].Observe(float64(rttNs) / 1e6)
		sc.hLatency[ri].Observe(rttNs)
		if e > 0 && f.prevSat[t] >= 0 && f.sat[t] != f.prevSat[t] {
			sc.handovers[ri]++
		}
		if f.active[t] != idle {
			share := f.cfg.MaxTermMbps
			for k, s := range sc.satList {
				if s == f.sat[t] {
					if per := f.cfg.BeamMbps / float64(sc.satCnt[k]); per < share {
						share = per
					}
					break
				}
			}
			if f.active[t] == activePeak {
				sc.peak[ri].Observe(share)
			} else {
				sc.offPeak[ri].Observe(share)
			}
			sc.hTput[ri].Observe(int64(share * 1000))
		}
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
