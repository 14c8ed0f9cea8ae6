// Package fleet simulates a planet-scale population of Starlink user
// terminals: a population-weighted global terminal grid placed
// deterministically from a derived seed, struct-of-arrays terminal state,
// and a geodesic cell index that makes each epoch's serving-satellite
// reassignment O(cells-in-view) instead of O(terminals × constellation).
//
// The source paper measures the service from a single Belgian dish;
// follow-up work (Democratizing LEO Satellite Network Measurement, A
// Multifaceted Look at Starlink Performance) shows that both coverage and
// peak-hour contention vary strongly with where on the planet the dish
// sits. This package reproduces that global view: terminals cluster
// around metro areas on every continent, a per-cell beam-capacity model
// splits satellite capacity among concurrently active terminals (the
// peak-hour throughput dip), and per-region latency/throughput/outage
// distributions come out the other end.
//
// An epoch is one walk over the populated cells: each cell assigns its
// terminals and accounts them in the same pass (pool.go). The equivalence
// suite holds the cell-indexed, bound-pruned reassignment bit-identical to
// a naive O(N×M) scan of every satellite for every terminal (the oracle in
// equivalence_test.go) across seeds, latitude bands, degenerate cells and
// masks, and worker counts. A steady-state epoch allocates nothing: the
// one position snapshot and the workers' per-cell candidate and beam lists
// are all refilled in place every epoch.
package fleet

import (
	"fmt"
	"math"
	"slices"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// reachMarginRad pads the cell-admission window beyond the exact
// spherical-geometry bound, exactly like the leo pruned scan's margin: it
// only has to dominate floating-point rounding in the window arithmetic.
const reachMarginRad = 0.005

// maxTermMbps caps what a single terminal can draw from an uncontended
// beam.
const maxTermMbps = 250.0

// Config parameterizes a fleet scenario. The zero value of every field
// selects a sensible default (see withDefaults), so Config{} runs the
// quick global scenario.
type Config struct {
	// Seed derives terminal placement and activity. The whole scenario
	// is a pure function of the config, so equal seeds reproduce equal
	// results bit-for-bit.
	Seed uint64
	// Terminals is the fleet size (default 10 000).
	Terminals int
	// Horizon is the simulated campaign length (default 2h).
	Horizon time.Duration
	// Epoch is the reassignment interval (default leo.Epoch, the
	// Starlink reallocation granularity the paper observes).
	Epoch time.Duration
	// MaskDeg is the terminal elevation mask (default
	// leo.TerminalMaskDeg, 25°).
	MaskDeg float64
	// BeamMbps is the capacity of one satellite beam over one cell
	// (default 800). Active terminals in a cell served by the same
	// satellite split it evenly.
	BeamMbps float64
	// Workers parallelizes the epoch walk and placement over this many
	// goroutines (default 1). Results are worker-count invariant.
	Workers int
	// Clusters is the population grid (default WorldClusters).
	Clusters []Cluster
	// Gateways is the ground-station set (default WorldGateways).
	Gateways []leo.Gateway
	// Shells is the constellation (default Starlink Gen1).
	Shells []leo.ShellConfig
	// Obs receives per-region metrics and per-epoch trace events; nil
	// disables observability at the usual one-branch cost.
	Obs *obs.Sink
}

func (c Config) withDefaults() Config {
	if c.Terminals <= 0 {
		c.Terminals = 10000
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Hour
	}
	if c.Epoch <= 0 {
		c.Epoch = leo.Epoch
	}
	if c.MaskDeg == 0 {
		c.MaskDeg = leo.TerminalMaskDeg
	}
	if c.BeamMbps <= 0 {
		c.BeamMbps = 800
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if len(c.Clusters) == 0 {
		c.Clusters = WorldClusters()
	}
	if len(c.Gateways) == 0 {
		c.Gateways = WorldGateways()
	}
	if len(c.Shells) == 0 {
		c.Shells = []leo.ShellConfig{leo.StarlinkGen1()}
	}
	return c
}

// shellMeta is the per-shell geometry the scan paths need, flattened so
// the hot loops never chase into leo internals.
type shellMeta struct {
	offset  int     // first flat sat id of this shell
	enabled []bool  // flat [plane*per+idx]; membership fixed for a run
	reach   float64 // coverage central angle + margin, radians
	// cosReach[r] is cos(reach + row r's radius): the admission threshold
	// on ŝ·ĉ for a cell of row r, a function of (shell, row) alone.
	cosReach []float64
	skyEnd   int // end of this shell's run of the epoch's sky list
}

// Fleet is an instantiated scenario: terminal state in struct-of-arrays
// form, sorted by (cell, placement index) so per-cell passes are
// contiguous. A Fleet is not safe for concurrent use; RunEpoch
// parallelizes internally over disjoint runs of cells.
type Fleet struct {
	cfg     Config
	con     *leo.Constellation
	grid    *cellGrid
	regions []string

	// Terminal SoA, sorted by (cell, original placement index): only what
	// an epoch reads, 51 B per terminal. lon places the local hour, the
	// position the argmax (its radius is re-derived, not stored), seed the
	// activity coin; sat, gw and delayNs are the epoch's outcome, and sat,
	// read before it is overwritten, is also the handover test's memory.
	// New checks that region, gateway and delay fit their widths.
	lon     []float64
	px      []float64
	py      []float64
	pz      []float64
	seed    []uint64
	sat     []int32 // serving flat sat id, -1 during outage
	delayNs []int32 // one-way bent-pipe delay, -1 during outage
	gw      []int16 // serving gateway index, -1 when unreachable
	region  []uint8

	cellStart []int32    // CSR over terminals by cell, len nCells+1
	popCells  []int32    // cells holding at least one terminal, ascending
	popRow    []int32    // beside popCells: the cell's grid row
	popCenter []geo.ECEF // beside popCells: unit vector to the cell's center
	maxCell   int        // most terminals one cell holds
	minNorm   float64    // smallest terminal radius: the observer radius the bound assumes

	shells  []shellMeta
	sinMask float64
	gws     leo.GatewayTable

	// Per-epoch tables, refilled in place by prepare: satPos is the flat
	// per-satellite position table and sky the enabled satellites as
	// admission reads them; stamp numbers the epoch for the workers'
	// gateway caches. The walk only reads them.
	snap   leo.Snapshot
	stamp  uint32
	satPos []geo.ECEF
	sky    []skySat
	scan   ScanStats

	acc []regionAccum
	// Per-epoch per-region scratch for trace emission.
	epochOut []int64
	epochHo  []int64

	// The epoch's worker pool and the walk body, bound once; one scratch
	// per worker, the walk's cell-aligned ranges (ordinals into popCells)
	// and the staged epoch (pool.go).
	workers    *sim.Workers
	walkBody   func(w, i int)
	scratch    []epochScratch
	walkRanges []int32
	epoch      int
	utcHours   float64
}

// New builds a fleet: places terminals, sorts them by cell and sizes the
// scratch buffers. Placement is a pure function of (cfg.Seed, index, cfg.
// Clusters) and parallelizes over cfg.Workers without affecting results.
// It panics, naming the limit, when the config outgrows a narrowed
// terminal field: more than 256 regions, more than 32768 gateways, or
// shells high enough for a bent-pipe delay past 2³¹−1 ns.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{cfg: cfg}

	regionOf := make(map[string]int)
	clusterRegion := make([]uint8, len(cfg.Clusters))
	for _, cl := range cfg.Clusters {
		if _, ok := regionOf[cl.Region]; !ok {
			regionOf[cl.Region] = len(f.regions)
			f.regions = append(f.regions, cl.Region)
		}
	}
	checkLimits(cfg, len(f.regions))
	for ci, cl := range cfg.Clusters {
		clusterRegion[ci] = uint8(regionOf[cl.Region])
	}

	shells := make([]*leo.Shell, len(cfg.Shells))
	offset := 0
	for si, sc := range cfg.Shells {
		sh := leo.NewShell(sc)
		shells[si] = sh
		m := shellMeta{
			offset:  offset,
			enabled: make([]bool, sc.Planes*sc.SatsPerPlane),
			reach: geo.CoverageCentralAngleRad(geo.EarthRadiusKm,
				geo.EarthRadiusKm+sc.AltKm, cfg.MaskDeg) + reachMarginRad,
		}
		for p := 0; p < sc.Planes; p++ {
			for i := 0; i < sc.SatsPerPlane; i++ {
				m.enabled[p*sc.SatsPerPlane+i] = sh.Enabled(p, i)
			}
		}
		offset += sc.Planes * sc.SatsPerPlane
		f.shells = append(f.shells, m)
	}
	f.con = leo.NewConstellation(shells...)
	f.satPos, f.sky = make([]geo.ECEF, offset), make([]skySat, 0, offset)
	f.sinMask = math.Sin(geo.Radians(cfg.MaskDeg))
	f.grid = newCellGrid()
	for si := range f.shells {
		m := &f.shells[si]
		m.cosReach = make([]float64, len(f.grid.rows))
		for r, row := range f.grid.rows {
			m.cosReach[r] = math.Cos(m.reach + row.radius)
		}
	}

	f.gws = leo.NewGatewayTable(cfg.Gateways)

	f.workers = sim.NewWorkers(cfg.Workers)
	n := cfg.Terminals
	lat, lon, cluster, seeds := placeTerminals(cfg.Seed, n, cfg.Clusters, f.workers)

	// Sort terminals by (cell, placement index) with one counting pass:
	// indexTerminals counts the cells into the CSR, and each terminal goes
	// to the next free slot of its cell in placement order, so per-cell
	// slices are contiguous and the order is a pure function of the
	// placement.
	cells := make([]int32, n) // by placement index
	for i := range cells {
		cells[i] = f.grid.cellOf(lat[i], lon[i])
	}
	f.indexTerminals(cells)
	next := slices.Clone(f.cellStart[:f.grid.nCells])

	// The SoA arrays come out of one slab per element width: capacity
	// planning for the 1M-terminal build, 51 B/terminal all in.
	fslab := make([]float64, 4*n)
	slabF := func() (s []float64) { s, fslab = fslab[:n:n], fslab[n:]; return }
	f.lon, f.px, f.py, f.pz = slabF(), slabF(), slabF(), slabF()
	islab := make([]int32, 2*n)
	f.sat, f.delayNs = islab[:n:n], islab[n:]
	f.seed = make([]uint64, n)
	f.gw = make([]int16, n)
	f.region = make([]uint8, n)
	for i, c := range cells {
		t := next[c]
		next[c]++
		f.lon[t] = lon[i]
		e := geo.LatLon{LatDeg: lat[i], LonDeg: lon[i]}.ToECEF()
		f.px[t], f.py[t], f.pz[t] = e.X, e.Y, e.Z
		f.region[t] = clusterRegion[cluster[i]]
		f.seed[t] = seeds[i]
		f.sat[t], f.gw[t], f.delayNs[t] = -1, -1, -1
	}
	f.minNorm = math.Inf(1)
	for t := range f.px {
		f.minNorm = min(f.minNorm, f.site(t).norm)
	}

	f.epochOut = make([]int64, len(f.regions))
	f.epochHo = make([]int64, len(f.regions))

	f.initAccum()
	f.scratch = make([]epochScratch, cfg.Workers)
	for w := range f.scratch {
		f.scratch[w] = f.newScratch()
	}
	// The walk's ranges are the cell-aligned partition, several per worker
	// to even out metro cells, as runs of populated cells.
	pm := f.PartitionTerminals(cfg.Workers * 8)
	f.walkRanges = make([]int32, 0, len(pm.TermStart))
	k := 0
	for _, ts := range pm.TermStart {
		for k < len(f.popCells) && f.cellStart[f.popCells[k]] < ts {
			k++
		}
		f.walkRanges = append(f.walkRanges, int32(k))
	}
	f.walkBody = func(w, i int) {
		for k := f.walkRanges[i]; k < f.walkRanges[i+1]; k++ {
			f.walkCell(&f.scratch[w], int(k))
		}
	}
	return f
}

// checkLimits panics, naming the limit, when cfg, whose clusters name
// regions distinct regions, outgrows a narrowed terminal field: the region
// index is a uint8 and the gateway index an
// int16 with -1 for none, and the one-way delay, an int32 of nanoseconds,
// is at most the radio delay over the longest bent pipe the shells allow:
// each leg, up from a terminal and down to a gateway, is at most the
// diameter through the satellite's orbit plus the ground site's height.
func checkLimits(cfg Config, regions int) {
	if regions > math.MaxUint8+1 {
		panic(fmt.Sprintf("fleet: %d regions exceed the %d a uint8 region index holds", regions, math.MaxUint8+1))
	}
	if len(cfg.Gateways) > math.MaxInt16+1 {
		panic(fmt.Sprintf("fleet: %d gateways exceed the %d an int16 gateway index holds", len(cfg.Gateways), math.MaxInt16+1))
	}
	maxAlt, maxGwAlt := 0.0, 0.0
	for _, sc := range cfg.Shells {
		maxAlt = max(maxAlt, sc.AltKm)
	}
	for _, g := range cfg.Gateways {
		maxGwAlt = max(maxGwAlt, g.Pos.AltKm)
	}
	leg := 2*geo.EarthRadiusKm + maxAlt
	if d := geo.RadioDelay(2*leg + maxGwAlt); d > math.MaxInt32 || d < 0 {
		panic(fmt.Sprintf("fleet: shells up to %.0f km allow a %v bent-pipe delay, past the %v an int32 delay holds",
			maxAlt, d, time.Duration(math.MaxInt32)))
	}
}

// indexTerminals derives from the terminals' cells, in any order, what
// the epoch reads per cell: the CSR over terminals by cell, the populated
// cells with their rows and center directions (admission and the walk
// visit no other), and the largest cell.
func (f *Fleet) indexTerminals(cells []int32) {
	if f.cellStart == nil {
		f.cellStart = make([]int32, f.grid.nCells+1)
	}
	clear(f.cellStart)
	for _, c := range cells {
		f.cellStart[c+1]++
	}
	for c := 0; c < f.grid.nCells; c++ {
		f.cellStart[c+1] += f.cellStart[c]
	}
	populated := 0
	for c := 0; c < f.grid.nCells; c++ {
		if f.cellStart[c] != f.cellStart[c+1] {
			populated++
		}
	}
	f.popCells = make([]int32, 0, populated)
	f.popRow = make([]int32, 0, populated)
	f.popCenter = make([]geo.ECEF, 0, populated)
	f.maxCell = 0
	for r := range f.grid.rows {
		row := &f.grid.rows[r]
		for k := int32(0); k < row.nLon; k++ {
			c := row.start + k
			held := int(f.cellStart[c+1] - f.cellStart[c])
			if held == 0 {
				continue
			}
			sinLon, cosLon := math.Sincos((float64(k)+0.5)*row.width - math.Pi)
			f.popCells = append(f.popCells, c)
			f.popRow = append(f.popRow, int32(r))
			f.popCenter = append(f.popCenter, geo.ECEF{X: row.cosMid * cosLon, Y: row.cosMid * sinLon, Z: row.sinMid})
			f.maxCell = max(f.maxCell, held)
		}
	}
	f.scan.PopulatedCells = populated
}

// Result is the per-region outcome of a fleet campaign.
type Result struct {
	Terminals  int
	Epochs     int
	Cells      int
	Satellites int
	Regions    []RegionResult
}

// RegionResult summarizes one region's distributions over the campaign.
type RegionResult struct {
	Region    string
	Terminals int
	// Samples counts served terminal-epochs (each contributes one
	// latency observation).
	Samples int64
	// OutageTermEpochs counts terminal-epochs with no serving satellite
	// or no reachable gateway; OutagePct is the share of all
	// terminal-epochs.
	OutageTermEpochs int64
	OutagePct        float64
	// Handovers counts served→served serving-satellite changes.
	Handovers int64
	// RTT quantiles (bent-pipe, both directions) in milliseconds.
	LatencyP50Ms float64
	LatencyP95Ms float64
	// Median per-terminal throughput share during local peak hours
	// (18:00–23:00) and off-peak, and the relative dip between them —
	// the beam-contention signature. 0 when a window held no samples.
	PeakMbpsP50    float64
	OffPeakMbpsP50 float64
	PeakDipPct     float64
}

// Run executes the campaign: one RunEpoch per epoch, then the per-region
// report.
func (f *Fleet) Run() *Result {
	epochs := int(f.cfg.Horizon / f.cfg.Epoch)
	if epochs < 1 {
		epochs = 1
	}
	for e := 0; e < epochs; e++ {
		f.RunEpoch(e, sim.Time(int64(e)*int64(f.cfg.Epoch)))
	}
	return f.result(epochs)
}

// RunEpoch executes one campaign epoch at instant at: one walk over the
// populated cells on the configured worker count, in which each cell
// assigns its terminals and accounts them (pool.go), then the ordered merge
// of the workers' scratch and the epoch's trace records.
func (f *Fleet) RunEpoch(e int, at sim.Time) {
	f.epoch, f.utcHours = e, at.Seconds()/3600
	f.walk(at)
	clear(f.epochOut)
	clear(f.epochHo)
	for w := range f.scratch {
		f.mergeScratch(&f.scratch[w])
	}
	if f.cfg.Obs != nil {
		tr := f.cfg.Obs.Tracer()
		for ri := range f.acc {
			tr.Emit(at, obs.KindFleetEpoch, f.acc[ri].subj, f.epochOut[ri], f.epochHo[ri])
		}
	}
}

// Run builds and runs a fleet scenario in one call.
func Run(cfg Config) *Result {
	f := New(cfg)
	defer f.Close()
	return f.Run()
}
