package fleet

import (
	"sync/atomic"

	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/stats"
)

// The partitioned epoch campaign: with cfg.Workers > 1 a Fleet owns a
// persistent pool of worker goroutines that executes each epoch's two
// data-parallel phases — terminal reassignment and the beam-contention
// accounting pass — as a deterministic fork/join. Reassignment is
// embarrassingly parallel (each terminal is a pure function of position
// and snapshot). Observation is made so by giving every worker its own
// epochScratch: workers claim cell-aligned terminal ranges off an atomic
// cursor, observe into private integer-count distributions, and the
// single-threaded merge pass drains the scratches in worker order.
// Integer merges are order-invariant, so the final accumulators — and
// therefore results, metrics exports and traces — are bit-identical for
// any worker count, including the pool-less single worker, which runs the
// same observe body inline into the one scratch it has.
// TestEpochCampaignWorkerInvariance enforces exactly that, up to 100 000
// terminals; TestRunReferenceEquivalence holds scratch + merge to an
// independent direct accounting.

// Phase tokens handed to pool workers.
const (
	phaseAssign int32 = iota
	phaseObserve
)

// epochPool is the persistent fork/join pool. Workers block on the work
// channel between epochs; runPhase resets the work-stealing cursor,
// releases one token per worker and joins on the done channel. The
// channel operations provide the happens-before edges: everything the
// main goroutine wrote before runPhase is visible to workers, and every
// scratch write is visible to the merge pass after the join. Steady
// state allocates nothing — tokens are plain int32s and the cursor is a
// single atomic — which is what keeps the multi-worker epoch path inside
// the alloc gate.
type epochPool struct {
	workers int
	work    chan int32
	done    chan struct{}
	cursor  atomic.Int64
}

func newEpochPool(f *Fleet, workers int) *epochPool {
	p := &epochPool{
		workers: workers,
		work:    make(chan int32, workers),
		done:    make(chan struct{}, workers),
	}
	for w := 0; w < workers; w++ {
		go f.poolWorker(p, w)
	}
	return p
}

// runPhase executes one phase across all workers and blocks until every
// worker has drained the cursor.
func (p *epochPool) runPhase(ph int32) {
	p.cursor.Store(0)
	for w := 0; w < p.workers; w++ {
		p.work <- ph
	}
	for w := 0; w < p.workers; w++ {
		<-p.done
	}
}

// poolWorker is the body of pool goroutine w. The scratch index is the
// spawn id, not the token: workers may consume an uneven number of
// ranges, but each always writes only its own scratch.
func (f *Fleet) poolWorker(p *epochPool, w int) {
	for ph := range p.work {
		switch ph {
		case phaseAssign:
			f.stealAssign(p, &f.scratch[w])
		case phaseObserve:
			f.stealObserve(p, &f.scratch[w])
		}
		p.done <- struct{}{}
	}
}

// stealAssign claims fixed-size terminal blocks until the fleet is
// exhausted — same work unit as the pre-pool goroutine-per-epoch path.
func (f *Fleet) stealAssign(p *epochPool, sc *epochScratch) {
	n := len(f.sat)
	for {
		lo := int(p.cursor.Add(1)-1) * assignBlock
		if lo >= n {
			return
		}
		hi := lo + assignBlock
		if hi > n {
			hi = n
		}
		f.assignRange(sc, lo, hi)
	}
}

// stealObserve claims pre-balanced cell-aligned terminal ranges (built
// once at New time from PartitionTerminals) and observes each into this
// worker's scratch.
func (f *Fleet) stealObserve(p *epochPool, sc *epochScratch) {
	nr := len(f.obsRanges) - 1
	for {
		i := int(p.cursor.Add(1) - 1)
		if i >= nr {
			return
		}
		f.observeRange(sc, f.obsEpoch, f.obsUTC, int(f.obsRanges[i]), int(f.obsRanges[i+1]))
	}
}

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
// split one beam's capacity. The per-cell accounting goes into scratch —
// fanned out over the pool, or inline without one — then every scratch is
// drained into the shared accumulators and the epoch trace is emitted.
func (f *Fleet) observeEpoch(e int, at sim.Time) {
	utcHours := at.Seconds() / 3600
	for ri := range f.epochOut {
		f.epochOut[ri] = 0
		f.epochHo[ri] = 0
	}
	if f.pool != nil {
		f.obsEpoch, f.obsUTC = e, utcHours
		f.pool.runPhase(phaseObserve)
	} else {
		f.observeRange(&f.scratch[0], e, utcHours, 0, len(f.sat))
	}
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

// Close shuts the worker pool down. Idempotent; a Fleet built with
// Workers <= 1 has no pool and Close is a no-op. A closed Fleet still
// runs epochs, on the calling goroutine. Run(cfg) and Traffic.Run close
// their fleets; callers that build a pooled Fleet via New and keep it
// should Close it when done, or its worker goroutines outlive it.
func (f *Fleet) Close() {
	if f.pool != nil {
		close(f.pool.work)
		f.pool = nil
	}
}
