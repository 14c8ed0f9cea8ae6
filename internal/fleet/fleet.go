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
// The equivalence suite holds the cell-indexed, bound-pruned reassignment
// bit-identical to a naive O(N×M) scan of every satellite for every
// terminal (the oracle in equivalence_test.go) across seeds, latitude
// bands, degenerate cells and masks, and worker counts. Steady-state
// reassignment allocates nothing: the candidate CSR scratch, the one
// position snapshot and the per-cell beam lists are all refilled in place
// every epoch.
package fleet

import (
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
	// Epoch is the reassignment interval (default 15s, the Starlink
	// reallocation granularity the paper observes).
	Epoch time.Duration
	// MaskDeg is the terminal elevation mask (default 25°).
	MaskDeg float64
	// CellDeg is the geodesic cell height in degrees of latitude
	// (default 2.5°; longitude widths shrink with cos(lat) so cells stay
	// roughly equal-area).
	CellDeg float64
	// BeamMbps is the capacity of one satellite beam over one cell
	// (default 800). Active terminals in a cell served by the same
	// satellite split it evenly.
	BeamMbps float64
	// MaxTermMbps caps what a single terminal can draw from an
	// uncontended beam (default 250).
	MaxTermMbps float64
	// Workers parallelizes reassignment and placement over this many
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
		c.Epoch = 15 * time.Second
	}
	if c.MaskDeg == 0 {
		c.MaskDeg = 25
	}
	if c.CellDeg <= 0 {
		c.CellDeg = 2.5
	}
	if c.BeamMbps <= 0 {
		c.BeamMbps = 800
	}
	if c.MaxTermMbps <= 0 {
		c.MaxTermMbps = 250
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
	offset  int // first flat sat id of this shell
	planes  int
	per     int
	enabled []bool  // flat [plane*per+idx]; membership fixed for a run
	reach   float64 // coverage central angle + margin, radians
	// cosReach[r] is cos(reach + row r's radius): the admission window's
	// threshold, a function of (shell, row) alone.
	cosReach []float64
}

// Fleet is an instantiated scenario: terminal state in struct-of-arrays
// form, sorted by (cell, placement index) so per-cell passes are
// contiguous. A Fleet is not safe for concurrent use; ReassignAt
// parallelizes internally over disjoint index ranges.
type Fleet struct {
	cfg     Config
	con     *leo.Constellation
	grid    *cellGrid
	regions []string

	// Terminal SoA, sorted by (cell, original placement index). orig
	// maps back to the placement index i that derived the terminal.
	orig    []int32
	lat     []float64
	lon     []float64
	px      []float64
	py      []float64
	pz      []float64
	pnorm   []float64
	region  []int32
	cell    []int32
	seed    []uint64
	sat     []int32 // serving flat sat id, -1 during outage
	prevSat []int32
	gw      []int32 // serving gateway index, -1 when unreachable
	delayNs []int64 // one-way bent-pipe delay, -1 during outage

	cellStart []int32 // CSR over terminals by cell, len nCells+1
	popRows   []int32 // grid rows holding at least one terminal, ascending
	minNorm   float64 // smallest pnorm: the observer radius the bound assumes

	shells  []shellMeta
	sinMask float64
	gws     leo.GatewayTable

	// Per-epoch scratch, reused so steady-state reassignment is
	// allocation-free once every buffer has grown to its working size.
	// satPos/satGw/satGwKm are the flat per-satellite table fillSatTable
	// refills: position, serving gateway (-1: none in view) and range to it.
	// admits/candStart/candFill/cands/candUB are buildCandidates' sweep list
	// and the CSR it sorts into, over the cells that hold terminals.
	snap      leo.Snapshot
	satPos    []geo.ECEF
	satGw     []int32
	satGwKm   []float64
	admits    []admission
	candStart []int32 // len nCells+1
	candFill  []int32
	cands     []int32
	candUB    []float64 // beside cands: upper bound on sinElevation over the cell
	scan      ScanStats

	acc []regionAccum
	// Per-epoch per-region scratch for trace emission.
	epochOut []int64
	epochHo  []int64
	active   []uint8 // idle, activeOffPeak or activePeak (pool.go)

	// The epoch's worker pool and its two phase bodies, bound once; one
	// scratch per worker, the observe ranges and the staged epoch (pool.go).
	workers     *sim.Workers
	assignBody  func(w, i int)
	observeBody func(w, i int)
	scratch     []epochScratch
	obsRanges   []int32
	obsEpoch    int
	obsUTC      float64
}

// New builds a fleet: places terminals, sorts them by cell and sizes the
// scratch buffers. Placement is a pure function of (cfg.Seed, index, cfg.
// Clusters) and parallelizes over cfg.Workers without affecting results.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{cfg: cfg}

	regionOf := make(map[string]int32)
	clusterRegion := make([]int32, len(cfg.Clusters))
	for ci, cl := range cfg.Clusters {
		ri, ok := regionOf[cl.Region]
		if !ok {
			ri = int32(len(f.regions))
			regionOf[cl.Region] = ri
			f.regions = append(f.regions, cl.Region)
		}
		clusterRegion[ci] = ri
	}

	shells := make([]*leo.Shell, len(cfg.Shells))
	offset := 0
	for si, sc := range cfg.Shells {
		sh := leo.NewShell(sc)
		shells[si] = sh
		m := shellMeta{
			offset:  offset,
			planes:  sc.Planes,
			per:     sc.SatsPerPlane,
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
	f.satPos, f.satGw, f.satGwKm = make([]geo.ECEF, offset), make([]int32, offset), make([]float64, offset)
	f.sinMask = math.Sin(geo.Radians(cfg.MaskDeg))
	f.grid = newCellGrid(cfg.CellDeg)
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

	// Sort terminals by (cell, placement index): per-cell slices become
	// contiguous and the order stays a pure function of the placement.
	// The key packs (cell, index) into one uint64 so slices.Sort runs on
	// plain integers — at 1M terminals a comparator-based sort dominates
	// construction time.
	cells := make([]int32, n)
	keys := make([]uint64, n)
	for i := 0; i < n; i++ {
		cells[i] = f.grid.cellOf(lat[i], lon[i])
		keys[i] = uint64(uint32(cells[i]))<<32 | uint64(uint32(i))
	}
	slices.Sort(keys)

	// The SoA arrays come out of two slabs (one per element width)
	// instead of thirteen separate allocations: capacity planning for
	// the 1M-terminal build, ~89 B/terminal all in.
	fslab := make([]float64, 6*n)
	slabF := func() (s []float64) { s, fslab = fslab[:n:n], fslab[n:]; return }
	f.lat, f.lon = slabF(), slabF()
	f.px, f.py, f.pz = slabF(), slabF(), slabF()
	f.pnorm = slabF()
	islab := make([]int32, 6*n)
	slabI := func() (s []int32) { s, islab = islab[:n:n], islab[n:]; return }
	f.orig, f.region, f.cell = slabI(), slabI(), slabI()
	f.sat, f.prevSat, f.gw = slabI(), slabI(), slabI()
	f.seed = make([]uint64, n)
	f.delayNs = make([]int64, n)
	f.active = make([]uint8, n)
	for t, k := range keys {
		i := int(uint32(k))
		f.orig[t] = int32(i)
		f.lat[t] = lat[i]
		f.lon[t] = lon[i]
		e := geo.LatLon{LatDeg: lat[i], LonDeg: lon[i]}.ToECEF()
		f.px[t], f.py[t], f.pz[t] = e.X, e.Y, e.Z
		f.pnorm[t] = e.Norm()
		f.region[t] = clusterRegion[cluster[i]]
		f.cell[t] = cells[i]
		f.seed[t] = seeds[i]
		f.sat[t], f.prevSat[t], f.gw[t], f.delayNs[t] = -1, -1, -1, -1
	}

	f.cellStart = make([]int32, f.grid.nCells+1)
	f.indexTerminals()

	// A populated cell lists some 18 Gen1 satellites; append grows the sweep
	// list, and the CSR tables after it, if a constellation is denser.
	f.admits = make([]admission, 0, 20*f.scan.PopulatedCells)
	f.candStart = make([]int32, f.grid.nCells+1)
	f.candFill = make([]int32, f.grid.nCells)
	f.epochOut = make([]int64, len(f.regions))
	f.epochHo = make([]int64, len(f.regions))

	f.initAccum()
	f.scratch = make([]epochScratch, cfg.Workers)
	for w := range f.scratch {
		f.scratch[w] = f.newScratch()
	}
	// Cell-aligned observe ranges, several per worker to even out metro cells.
	f.obsRanges = f.PartitionTerminals(cfg.Workers * 8).TermStart
	f.assignBody = func(w, i int) {
		lo := i * assignBlock
		f.assignRange(&f.scratch[w], lo, min(lo+assignBlock, n))
	}
	f.observeBody = func(w, i int) {
		f.observeRange(&f.scratch[w], f.obsEpoch, f.obsUTC, int(f.obsRanges[i]), int(f.obsRanges[i+1]))
	}
	return f
}

// indexTerminals derives from the sorted terminal arrays what the epoch
// reads per cell and per fleet: the CSR over terminals by cell, which rows
// hold any (the admission sweep visits no other), and the smallest
// geocentric radius a terminal has (the bound's observer radius).
func (f *Fleet) indexTerminals() {
	clear(f.cellStart)
	for _, c := range f.cell {
		f.cellStart[c+1]++
	}
	for c := 0; c < f.grid.nCells; c++ {
		f.cellStart[c+1] += f.cellStart[c]
	}
	f.popRows = f.popRows[:0]
	f.scan.PopulatedCells = 0
	for r := range f.grid.rows {
		row := &f.grid.rows[r]
		cells := 0
		for c := row.start; c < row.start+row.nLon; c++ {
			if f.cellStart[c] != f.cellStart[c+1] {
				cells++
			}
		}
		if cells > 0 {
			f.popRows = append(f.popRows, int32(r))
			f.scan.PopulatedCells += cells
		}
	}
	f.minNorm = math.Inf(1)
	for _, n := range f.pnorm {
		f.minNorm = min(f.minNorm, n)
	}
}

// Terminals returns the fleet size.
func (f *Fleet) Terminals() int { return len(f.sat) }

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

// Run executes the campaign: one cell-indexed reassignment per epoch
// followed by the beam contention and distribution accounting pass.
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

// RunEpoch executes one campaign epoch at instant at: reassignment
// followed by the beam-contention accounting pass, both on the configured
// worker count.
func (f *Fleet) RunEpoch(e int, at sim.Time) {
	f.ReassignAt(at)
	f.observeEpoch(e, at)
}

// Run builds and runs a fleet scenario in one call.
func Run(cfg Config) *Result {
	f := New(cfg)
	defer f.Close()
	return f.Run()
}
