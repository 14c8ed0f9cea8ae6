package fleet

import (
	"math"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// walk runs one epoch's cell walk at instant at: the satellite-side tables
// (prepare), then every populated cell on the fleet's worker pool in the
// cell-aligned ranges New bound (walkCell: admission, then assignment),
// and the workers' scan counts. Every terminal's assignment is a pure
// function of (position, snapshot) — its previous satellite only decides
// how many candidates are scored — and the accounting merges by integer
// sums, so results are bit-identical for any worker count. A fresh epoch
// allocates nothing once the workers' candidate lists have grown to their
// working size: the snapshot is one table the fleet owns and refills in
// place, and the pool runs a body bound once in New.
func (f *Fleet) walk(at sim.Time) {
	f.prepare(at)
	f.workers.Run(len(f.walkRanges)-1, f.walkBody)
	f.scan.Epochs++
	f.scan.CandEntries = 0
	for w := range f.scratch {
		f.scan.merge(&f.scratch[w].scan)
	}
}

// prepare fills the epoch's satellite-side tables for instant at, single
// threaded ahead of the walk: the snapshot and the flat position and sky
// tables. It bumps the stamp, which retires every worker's gateway cache.
func (f *Fleet) prepare(at sim.Time) {
	f.con.FillSnapshot(&f.snap, at)
	f.fillSatTable()
	f.stamp++
}

// ScanStats is the reassignment scan's engine telemetry — no part of Result
// or of any sim-clock export, and equal for any worker count: how many
// candidates the terminals' cells listed, how many of those the
// best-bound-first scan reached before a bound fell below the value to
// beat, how many exact sinElevation evaluations that cost with the seeds,
// and how often the previous satellite was kept. The first five count
// every epoch walked since New; the last two describe the index.
type ScanStats struct {
	Epochs      int64
	Listed      int64 // candidates in each terminal's cell list, summed over terminal-epochs
	BoundPassed int64 // of those, scored: reached before the scan stopped, the seed excepted
	Evaluated   int64 // exact evaluations: BoundPassed plus one per seeded terminal-epoch
	SeedWon     int64 // terminal-epochs that kept their previous satellite

	PopulatedCells int // cells holding a terminal
	CandEntries    int // (cell, satellite) entries of the last epoch's per-cell lists
}

// ScanStats returns the scan telemetry accumulated so far.
func (f *Fleet) ScanStats() ScanStats { return f.scan }

// merge drains one worker's counts for the epoch into s.
func (s *ScanStats) merge(w *ScanStats) {
	s.Listed += w.Listed
	s.BoundPassed += w.BoundPassed
	s.Evaluated += w.Evaluated
	s.SeedWon += w.SeedWon
	s.CandEntries += w.CandEntries
	*w = ScanStats{}
}

// skySat is one enabled satellite as admission reads it: the direction of
// its position, its geocentric radius and its flat id.
type skySat struct {
	dir  geo.ECEF
	norm float64
	id   int32
}

// fillSatTable refills the flat position table from the snapshot, every
// position under its flat id, and lists the enabled satellites (only they
// are candidates) for admission, shell by shell in flat-id order.
func (f *Fleet) fillSatTable() {
	f.sky = f.sky[:0]
	for si := range f.shells {
		m := &f.shells[si]
		pos := f.satPos[m.offset : m.offset+len(m.enabled)]
		copy(pos, f.snap.ShellPositions(si))
		for j, en := range m.enabled {
			if en {
				p := pos[j]
				n := p.Norm()
				f.sky = append(f.sky, skySat{geo.ECEF{X: p.X / n, Y: p.Y / n, Z: p.Z / n}, n, int32(m.offset + j)})
			}
		}
		m.skyEnd = len(f.sky)
	}
}

// cand is one entry of a cell's candidate list: a satellite and the upper
// bound on its sinElevation over the cell.
type cand struct {
	ub float64
	id int32
}

// admit appends populated cell k's candidates to list and returns it,
// best bound first (sortCands). A satellite is admitted iff the cosine of
// the central angle between the subsatellite point and the cell's center,
// ŝ·ĉ, is at least cosReach of its shell and the cell's row: on the sphere
// a terminal sees a satellite only within the shell's coverage angle of
// the subsatellite point, and every point of the cell lies within
// row.radius of its center, so the test admits every satellite any of the
// cell's terminals can see (reach carries reachMarginRad for rounding). It
// is deliberately one-sided: the mask test rejects what it admits in
// excess. The dot product is also the bound's argument. It reads only the
// epoch's sky table, so workers admit their cells concurrently.
func (f *Fleet) admit(k int, list []cand) []cand {
	u := f.popCenter[k]
	r := f.popRow[k]
	slack := f.grid.rows[r].radius + reachMarginRad
	lo := 0
	for si := range f.shells {
		m := &f.shells[si]
		cosReach := m.cosReach[r]
		sky := f.sky[lo:m.skyEnd]
		lo = m.skyEnd
		for i := range sky {
			sv := &sky[i]
			cos := sv.dir.X*u.X + sv.dir.Y*u.Y + sv.dir.Z*u.Z
			if cos < cosReach {
				continue
			}
			list = append(list, cand{sinElevationBound(cos, slack, sv.norm, f.minNorm), sv.id})
		}
	}
	sortCands(list)
	return list
}

// sortCands orders a candidate list by bound, highest first, and equal
// bounds by ascending flat id: an insertion sort, since a cell lists some
// 18 Gen1 satellites. assign stops at the first bound below the value to
// beat, which this order makes the last one that could still win or tie.
func sortCands(list []cand) {
	for i := 1; i < len(list); i++ {
		c := list[i]
		j := i
		for ; j > 0 && (list[j-1].ub < c.ub || list[j-1].ub == c.ub && list[j-1].id > c.id); j-- {
			list[j] = list[j-1]
		}
		list[j] = c
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

// site is a terminal's position and geocentric radius: what every
// sinElevation evaluation of the terminal reads, loaded once per epoch.
type site struct{ x, y, z, norm float64 }

func (f *Fleet) site(t int) site {
	x, y, z := f.px[t], f.py[t], f.pz[t]
	return site{x, y, z, math.Sqrt(x*x + y*y + z*z)}
}

// sinElevation returns sin(elevation) of a satellite position seen from
// the site — the one formula the pruned scan and the test oracle's
// all-satellites scan both compare, so their argmax decisions are bitwise
// identical.
func (o *site) sinElevation(sp geo.ECEF) float64 {
	dx := sp.X - o.x
	dy := sp.Y - o.y
	dz := sp.Z - o.z
	dn := math.Sqrt(dx*dx + dy*dy + dz*dz)
	return (dx*o.x + dy*o.y + dz*o.z) / (dn * o.norm)
}

// assign returns the satellite that serves a terminal standing at o and
// entering the epoch with satellite prev (-1: none): the one with the
// largest sinElevation at or above the mask among its cell's candidates,
// the lowest flat id among equals — what an ascending scan of every
// satellite keeps — and how many candidates it scored exactly. The search
// starts from prev, which fifteen seconds later is usually still the best
// or close to it, then walks the list best bound first (sortCands) and
// stops at the first bound below the value to beat: every later candidate
// has a bound no larger, so it can neither win nor tie. The winner is the
// maximum of (sinElevation descending, id ascending) over the candidates
// at or above the mask, which no scan order changes
// (TestAssignOrderIndependent). A stop never rests on anything but bound <
// value with the bound proven an upper bound (TestSinElevationBound,
// FuzzSinElevationBound); every kept decision compares exact sinElevation
// values.
func (f *Fleet) assign(o *site, prev int32, cands []cand) (best int32, passed int64) {
	// need is the value a candidate must reach: the mask until a
	// satellite is held, that satellite's sinElevation from then on.
	best, need := int32(-1), f.sinMask
	if prev >= 0 {
		if sinEl := o.sinElevation(f.satPos[prev]); sinEl >= need {
			best, need = prev, sinEl
		}
	}
	for _, c := range cands {
		if c.ub < need {
			break
		}
		if c.id == prev {
			continue
		}
		passed++
		sinEl := o.sinElevation(f.satPos[c.id])
		if sinEl < need || (sinEl == need && best >= 0 && c.id > best) {
			continue
		}
		best, need = c.id, sinEl
	}
	return best, passed
}

// gwEntry is one satellite's slot in a worker's gateway cache: the
// serving gateway (-1: none in view), the range to it, and the stamp of
// the epoch that filled it.
type gwEntry struct {
	km float64
	at uint32
	gw int16
}

// gateway returns satellite s's serving gateway and the range to it, from
// sc's cache when this epoch filled the slot. leo.GatewayTable.Best is a
// pure function of the satellite's position, so two workers that look up
// the same satellite get the same answer, and nothing shared is written.
func (f *Fleet) gateway(sc *epochScratch, s int32) (int16, float64) {
	e := &sc.gwCache[s]
	if e.at != f.stamp {
		gw, km := f.gws.Best(f.satPos[s])
		*e = gwEntry{km, f.stamp, int16(gw)}
	}
	return e.gw, e.km
}

// finishAssignment records terminal t's serving satellite and derives the
// bent-pipe delay through that satellite's gateway (the down leg is the
// range leo.GatewayTable.Best measured). A terminal with no satellite, or
// whose satellite reaches no gateway, is in outage (delay -1). The gateway
// does not feed back into satellite choice — unlike leo.Terminal, which
// skips satellites without ground paths, the fleet model treats "satellite
// overhead but no gateway" as an outage, the situation remote-area dishes
// actually experience.
func (f *Fleet) finishAssignment(sc *epochScratch, t int, best int32) {
	f.sat[t] = best
	if best < 0 {
		f.gw[t] = -1
		f.delayNs[t] = -1
		return
	}
	gw, km := f.gateway(sc, best)
	f.gw[t] = gw
	if gw < 0 {
		f.delayNs[t] = -1
		return
	}
	sp := f.satPos[best]
	dx, dy, dz := sp.X-f.px[t], sp.Y-f.py[t], sp.Z-f.pz[t]
	up := math.Sqrt(dx*dx + dy*dy + dz*dz)
	f.delayNs[t] = int32(geo.RadioDelay(up + km))
}
