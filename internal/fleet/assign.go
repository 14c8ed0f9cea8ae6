package fleet

import (
	"math"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// assignBlock is the unit of work reassignment and placement hand to
// workers: big enough to amortize the atomic fetch, small enough to
// balance cells of very different terminal density.
const assignBlock = 2048

// ReassignAt recomputes every terminal's serving satellite, gateway and
// bent-pipe delay for the epoch instant at, using the cell index: one
// sweep over the constellation builds, for the cells that hold terminals,
// candidate lists with an upper bound on sin(elevation) beside each entry
// (CSR into reused scratch), then each terminal runs a bound-pruned argmax
// over its cell's candidates. The per-terminal phase fans out over the
// fleet's worker pool in assignBlock blocks (pool.go); every
// terminal's result is a pure function of (position, snapshot) — its
// previous satellite only decides how many candidates are scored — so
// results are bit-identical for any worker count.
//
// A fresh epoch allocates nothing for any worker count once the candidate
// scratch has grown to its working size: the position snapshot is one
// table the fleet owns and refills in place, and the pool runs a body bound
// once in New. The fleet alloc gates hold one and several workers to zero
// while the clock advances.
func (f *Fleet) ReassignAt(at sim.Time) {
	f.con.FillSnapshot(&f.snap, at)
	f.fillSatTable()
	f.buildCandidates()
	f.workers.Run((len(f.sat)+assignBlock-1)/assignBlock, f.assignBody)
	f.scan.Epochs++
	f.scan.CandEntries = len(f.cands)
	for w := range f.scratch {
		f.scan.merge(&f.scratch[w].scan)
	}
}

// ScanStats is the reassignment scan's engine telemetry — no part of Result
// or of any sim-clock export, and equal for any worker count: how many
// candidates the terminals' cells listed, how many of those the bound let
// through, how many exact sinElevation evaluations that cost with the
// seeds, and how often the previous satellite was kept. The first five
// count every ReassignAt since New; the last two describe the index.
type ScanStats struct {
	Epochs      int64
	Listed      int64 // candidates in each terminal's cell list, summed over terminal-epochs
	BoundPassed int64 // of those, scored because their bound could still win or tie
	Evaluated   int64 // exact evaluations: BoundPassed plus one per seeded terminal-epoch
	SeedWon     int64 // terminal-epochs that kept their previous satellite

	PopulatedCells int // cells holding a terminal
	CandEntries    int // (cell, satellite) entries of the last epoch's CSR
}

// ScanStats returns the scan telemetry accumulated so far.
func (f *Fleet) ScanStats() ScanStats { return f.scan }

// merge drains one worker's counts for the epoch into s.
func (s *ScanStats) merge(w *ScanStats) {
	s.Listed += w.Listed
	s.BoundPassed += w.BoundPassed
	s.Evaluated += w.Evaluated
	s.SeedWon += w.SeedWon
	*w = ScanStats{}
}

// fillSatTable refills the epoch's flat per-satellite table from the
// snapshot, single-threaded before the per-terminal phase: every position
// under its flat id and, for enabled satellites (only they are candidates),
// the gateway and slant range to it — a function of the satellite alone.
func (f *Fleet) fillSatTable() {
	for si := range f.shells {
		m := &f.shells[si]
		pos := f.satPos[m.offset : m.offset+len(m.enabled)]
		copy(pos, f.snap.ShellPositions(si))
		for j, en := range m.enabled {
			if en {
				f.satGw[m.offset+j], f.satGwKm[m.offset+j] = f.bestGateway(pos[j])
			}
		}
	}
}

// admission is one (populated cell, satellite) pair of the epoch's sweep
// with the bound computed at admission, kept in sweep order until
// buildCandidates sorts the pairs by cell.
type admission struct {
	cell, sat int32
	ub        float64
}

// buildCandidates fills the per-cell candidate CSR (candStart, cands) and
// the bound beside each entry (candUB) from the epoch's snapshot (f.snap):
// one admission sweep lists the (cell, satellite) pairs and counts them per
// cell, a prefix sum turns the counts into offsets, and a stable scatter
// moves each pair to its cell's run. Only cells that hold terminals are
// admitted into, so the tables are as long as the populated part of the
// planet is wide (some 18 candidates each for some dozens of cells), and the
// only allocations ever needed are growing them to their working size. The
// sweep is ascending in flat satellite id and admits a satellite to a given
// cell at most once, so every cell's list is strictly increasing.
func (f *Fleet) buildCandidates() {
	clear(f.candStart)
	f.admits = f.admits[:0]
	f.scanSats()
	for c := 0; c < f.grid.nCells; c++ {
		f.candStart[c+1] += f.candStart[c]
	}
	copy(f.candFill, f.candStart)
	if cap(f.cands) < len(f.admits) {
		// The sweep list is the working size: it starts from New's estimate,
		// append has already grown it with headroom if that fell short, and
		// the tables follow it, so epochs whose totals drift allocate nothing.
		f.cands = make([]int32, 0, cap(f.admits))
		f.candUB = make([]float64, 0, cap(f.admits))
	}
	f.cands, f.candUB = f.cands[:len(f.admits)], f.candUB[:len(f.admits)]
	for _, a := range f.admits {
		i := f.candFill[a.cell]
		f.candFill[a.cell]++
		f.cands[i], f.candUB[i] = a.sat, a.ub
	}
}

// satView is what the admission sweep knows about one satellite: computed
// once per epoch, read for every row and cell the satellite is tried on.
type satView struct {
	id             int32
	lon            float64 // subsatellite longitude, radians
	sinLat, cosLat float64 // of the subsatellite latitude
	norm           float64 // geocentric radius, km
}

// scanSats runs the satellite→cell admission sweep over the rows that hold
// terminals.
//
// Admission reasons on the sphere: a terminal in cell c can see
// satellite s only if the central angle between the terminal and the
// subsatellite point is at most the shell's coverage angle λ. Any point
// of c is within row.radius of c's center, so it suffices to admit s
// into every cell whose center is within reach = λ + margin + row.radius
// of the subsatellite point. Per row that is a latitude band test plus
// an exact longitude window: with Δ the center-to-subsatellite angle,
// cos Δ = A + B·cos(lonS − lonC), A = sin latS·sin latC,
// B = cos latS·cos latC, so cos(lonS − lonC) ≥ (cos reach − A)/B.
func (f *Fleet) scanSats() {
	for si := range f.shells {
		m := &f.shells[si]
		pos := f.snap.ShellPositions(si)
		for j, en := range m.enabled {
			if !en {
				continue
			}
			p := pos[j]
			sv := satView{id: int32(m.offset + j), norm: math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z)}
			lat := math.Asin(p.Z / sv.norm)
			sv.lon = math.Atan2(p.Y, p.X)
			sv.sinLat, sv.cosLat = math.Sincos(lat)
			for _, r := range f.popRows {
				row := &f.grid.rows[r]
				if math.Abs(lat-row.midLat) > m.reach+row.radius {
					continue
				}
				cosReach := m.cosReach[r]
				a := sv.sinLat * row.sinMid
				b := sv.cosLat * row.cosMid
				if b <= 1e-12 {
					// Polar degeneracy: the window is all-or-nothing.
					if a >= cosReach {
						f.admitRow(row, 0, int(row.nLon)-1, &sv)
					}
					continue
				}
				x := (cosReach - a) / b
				if x > 1 {
					continue
				}
				if x <= -1 {
					f.admitRow(row, 0, int(row.nLon)-1, &sv)
					continue
				}
				dlon := math.Acos(x)
				w := row.width
				kLo := int(math.Ceil((sv.lon+math.Pi-dlon)/w - 0.5))
				kHi := int(math.Floor((sv.lon+math.Pi+dlon)/w - 0.5))
				if kHi-kLo+1 >= int(row.nLon) {
					f.admitRow(row, 0, int(row.nLon)-1, &sv)
					continue
				}
				f.admitRow(row, kLo, kHi, &sv)
			}
		}
	}
}

// admitRow admits the satellite into the populated cells among kLo..kHi of
// a row (inclusive, wrapping modulo the row width), each with its bound.
func (f *Fleet) admitRow(row *gridRow, kLo, kHi int, sv *satView) {
	n := int(row.nLon)
	for k := kLo; k <= kHi; k++ {
		kk := k % n
		if kk < 0 {
			kk += n
		}
		c := row.start + int32(kk)
		if f.cellStart[c] == f.cellStart[c+1] {
			continue
		}
		lonC := (float64(kk)+0.5)*row.width - math.Pi
		cosCenter := sv.sinLat*row.sinMid + sv.cosLat*row.cosMid*math.Cos(sv.lon-lonC)
		ub := sinElevationBound(cosCenter, row.radius+reachMarginRad, sv.norm, f.minNorm)
		f.admits = append(f.admits, admission{cell: c, sat: sv.id, ub: ub})
		f.candStart[c+1]++
	}
}

// boundPad is added to every bound: it only has to dominate the rounding
// of the two formulas being compared (both near 1e-15).
const boundPad = 1e-9

// sinElevationBound returns an upper bound on sinElevation of a satellite at
// geocentric radius rs for every observer of radius at least ro within
// slack radians of a point whose central angle to the subsatellite point
// has cosine cosCenter. It is the admission window's lemma read the other
// way: every terminal of a cell is within row.radius of the cell's center,
// so its central angle γ to the subsatellite point is at least the
// center's minus that radius; and sin(elevation) =
// (rs·cos γ − r)/√(rs² + r² − 2·rs·r·cos γ) falls as γ grows and as the
// observer's radius r grows (the derivatives are −rs²(rs − r·cos γ)·sin γ/d³
// and −rs²·sin²γ/d³), so the smallest admissible γ and the smallest r give
// the largest value. The same margin that pads the window pads the radius.
func sinElevationBound(cosCenter, slack, rs, ro float64) float64 {
	gamma := math.Acos(max(-1, min(1, cosCenter))) - slack
	if gamma <= 0 {
		return 1 + boundPad
	}
	c := math.Cos(gamma)
	return (rs*c-ro)/math.Sqrt(rs*rs+ro*ro-2*rs*ro*c) + boundPad
}

// sinElevation returns sin(elevation) of a satellite position seen from
// terminal t — the one formula the pruned scan and the test oracle's
// all-satellites scan both compare, so their argmax decisions are bitwise
// identical.
func (f *Fleet) sinElevation(t int, sp geo.ECEF) float64 {
	dx := sp.X - f.px[t]
	dy := sp.Y - f.py[t]
	dz := sp.Z - f.pz[t]
	dn := math.Sqrt(dx*dx + dy*dy + dz*dz)
	return (dx*f.px[t] + dy*f.py[t] + dz*f.pz[t]) / (dn * f.pnorm[t])
}

// assignRange assigns terminals [lo, hi): for each, the satellite with the
// largest sinElevation at or above the mask among its cell's candidates,
// the lowest flat id among equals — what an ascending scan of every
// satellite keeps. The search starts from the terminal's previous
// satellite, which fifteen seconds later is usually still the best or close
// to it, and skips every candidate whose bound is below the value to beat:
// such a candidate can neither win nor tie. A skip never rests on anything
// but bound < value with the bound proven an upper bound
// (TestSinElevationBound, FuzzSinElevationBound); every kept decision
// compares exact sinElevation values.
func (f *Fleet) assignRange(sc *epochScratch, lo, hi int) {
	var listed, passed, seeded, seedWon int64
	for t := lo; t < hi; t++ {
		// need is the value a candidate must reach: the mask until a
		// satellite is held, that satellite's sinElevation from then on.
		best, need := int32(-1), f.sinMask
		prev := f.sat[t]
		if prev >= 0 {
			seeded++
			if sinEl := f.sinElevation(t, f.satPos[prev]); sinEl >= need {
				best, need = prev, sinEl
			}
		}
		c := f.cell[t]
		cands := f.cands[f.candStart[c]:f.candStart[c+1]]
		ub := f.candUB[f.candStart[c]:f.candStart[c+1]]
		listed += int64(len(cands))
		for i, s := range cands {
			if ub[i] < need || s == prev {
				continue
			}
			passed++
			sinEl := f.sinElevation(t, f.satPos[s])
			if sinEl < need || (sinEl == need && best >= 0 && s > best) {
				continue
			}
			best, need = s, sinEl
		}
		if best == prev && best >= 0 {
			seedWon++
		}
		f.finishAssignment(t, best)
	}
	sc.scan.Listed += listed
	sc.scan.BoundPassed += passed
	sc.scan.Evaluated += passed + seeded
	sc.scan.SeedWon += seedWon
}

// finishAssignment records terminal t's serving satellite and derives the
// bent-pipe delay through that satellite's gateway (fillSatTable: the down
// leg is the range bestGateway measured). A terminal with no satellite, or
// whose satellite reaches no gateway, is in outage (delay -1). The
// gateway does not feed back into satellite choice — unlike
// leo.Terminal, which skips satellites without ground paths, the fleet
// model treats "satellite overhead but no gateway" as an outage, the
// situation remote-area dishes actually experience.
func (f *Fleet) finishAssignment(t int, best int32) {
	f.sat[t] = best
	if best < 0 {
		f.gw[t] = -1
		f.delayNs[t] = -1
		return
	}
	f.gw[t] = f.satGw[best]
	if f.gw[t] < 0 {
		f.delayNs[t] = -1
		return
	}
	sp := f.satPos[best]
	dx, dy, dz := sp.X-f.px[t], sp.Y-f.py[t], sp.Z-f.pz[t]
	up := math.Sqrt(dx*dx + dy*dy + dz*dz)
	f.delayNs[t] = int64(geo.RadioDelay(up + f.satGwKm[best]))
}

// bestGateway returns the gateway with the shortest slant range that
// sees the satellite above its mask and that range in km, or -1. Same
// cross-multiplied sine test as leo.Terminal.bestGateway; ties keep the
// first (lowest index).
func (f *Fleet) bestGateway(sp geo.ECEF) (best int32, bestRange float64) {
	best = -1
	for i := range f.gwEcef {
		e := f.gwEcef[i]
		dx := sp.X - e.X
		dy := sp.Y - e.Y
		dz := sp.Z - e.Z
		dn := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if dx*e.X+dy*e.Y+dz*e.Z < f.gwSinMask[i]*dn*f.gwNorm[i] {
			continue
		}
		if best < 0 || dn < bestRange {
			best, bestRange = int32(i), dn
		}
	}
	return best, bestRange
}
