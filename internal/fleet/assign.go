package fleet

import (
	"math"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// assignBlock is the unit of work the parallel reassignment hands to
// workers: big enough to amortize the atomic fetch, small enough to
// balance cells of very different terminal density.
const assignBlock = 2048

// ReassignAt recomputes every terminal's serving satellite, gateway and
// bent-pipe delay for the epoch instant at, using the cell index: one
// sweep over the constellation builds per-cell candidate lists (CSR into
// reused scratch), then each terminal scans only its cell's candidates.
// With cfg.Workers > 1 the per-terminal phase fans out over the fleet's
// persistent worker pool (pool.go); every terminal is a pure function of
// (position, snapshot), so results are bit-identical for any worker
// count.
//
// A fresh epoch allocates nothing for any worker count once the candidate
// scratch has grown to its working size: the position snapshot is one
// table the fleet owns and refills in place, and the pool hands out work
// with channel tokens. The fleet alloc gates hold both paths to zero
// while the clock advances.
func (f *Fleet) ReassignAt(at sim.Time) {
	f.con.FillSnapshot(&f.snap, at)
	f.fillSatTable()
	f.buildCandidates()
	if f.pool == nil {
		f.assignRange(0, len(f.sat))
		return
	}
	f.pool.runPhase(phaseAssign)
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

// buildCandidates fills the per-cell candidate CSR (candStart, cands)
// from the epoch's snapshot (f.snap): two identical enumeration passes —
// count, then fill — so the only allocation ever needed is growing cands
// to its working size. Enumeration is ascending in flat satellite id, and
// a satellite is admitted to a given cell at most once, so every cell's
// candidate list is strictly increasing — which is what makes the argmax
// tie-break below match an ascending scan of all satellites.
func (f *Fleet) buildCandidates() {
	for c := range f.candCount {
		f.candCount[c] = 0
	}
	f.scanSats(false)
	total := int32(0)
	for c := range f.candCount {
		f.candStart[c] = total
		total += f.candCount[c]
	}
	f.candStart[len(f.candCount)] = total
	copy(f.candFill, f.candStart[:len(f.candCount)])
	if cap(f.cands) < int(total) {
		// The total drifts by under 1 % from epoch to epoch; 3 % headroom
		// makes the first epoch's table the working size.
		f.cands = make([]int32, total, total+total/32)
	} else {
		f.cands = f.cands[:total]
	}
	f.scanSats(true)
}

// scanSats runs the satellite→cell admission sweep. fill=false counts
// admissions per cell, fill=true writes them; the two passes share this
// one body (a boolean, not closures — closures allocate) so they cannot
// diverge.
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
func (f *Fleet) scanSats(fill bool) {
	for si := range f.shells {
		m := &f.shells[si]
		pos := f.snap.ShellPositions(si)
		for j, en := range m.enabled {
			if !en {
				continue
			}
			s := int32(m.offset + j)
			p := pos[j]
			norm := math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z)
			satLat := math.Asin(p.Z / norm)
			satLon := math.Atan2(p.Y, p.X)
			sinLatS, cosLatS := math.Sincos(satLat)
			for r := range f.grid.rows {
				row := &f.grid.rows[r]
				reach := m.reach + row.radius
				if math.Abs(satLat-row.midLat) > reach {
					continue
				}
				cosReach := math.Cos(reach)
				a := sinLatS * row.sinMid
				b := cosLatS * row.cosMid
				if b <= 1e-12 {
					// Polar degeneracy: the window is all-or-nothing.
					if a >= cosReach {
						f.admitRow(row, 0, int(row.nLon)-1, s, fill)
					}
					continue
				}
				x := (cosReach - a) / b
				if x > 1 {
					continue
				}
				if x <= -1 {
					f.admitRow(row, 0, int(row.nLon)-1, s, fill)
					continue
				}
				dlon := math.Acos(x)
				w := row.width
				kLo := int(math.Ceil((satLon+math.Pi-dlon)/w - 0.5))
				kHi := int(math.Floor((satLon+math.Pi+dlon)/w - 0.5))
				if kHi-kLo+1 >= int(row.nLon) {
					f.admitRow(row, 0, int(row.nLon)-1, s, fill)
					continue
				}
				f.admitRow(row, kLo, kHi, s, fill)
			}
		}
	}
}

// admitRow admits satellite s into cells kLo..kHi of a row (inclusive,
// wrapping modulo the row width).
func (f *Fleet) admitRow(row *gridRow, kLo, kHi int, s int32, fill bool) {
	n := int(row.nLon)
	for k := kLo; k <= kHi; k++ {
		kk := k % n
		if kk < 0 {
			kk += n
		}
		c := row.start + int32(kk)
		if fill {
			f.cands[f.candFill[c]] = s
			f.candFill[c]++
		} else {
			f.candCount[c]++
		}
	}
}

// sinElevation returns sin(elevation) of a satellite position seen from
// terminal t — the one formula the cell-indexed scan and the test oracle's
// all-satellites scan both compare, so their argmax decisions are bitwise
// identical.
func (f *Fleet) sinElevation(t int, sp geo.ECEF) float64 {
	dx := sp.X - f.px[t]
	dy := sp.Y - f.py[t]
	dz := sp.Z - f.pz[t]
	dn := math.Sqrt(dx*dx + dy*dy + dz*dz)
	return (dx*f.px[t] + dy*f.py[t] + dz*f.pz[t]) / (dn * f.pnorm[t])
}

// assignRange assigns terminals [lo, hi) from the candidate CSR.
func (f *Fleet) assignRange(lo, hi int) {
	for t := lo; t < hi; t++ {
		c := f.cell[t]
		best := int32(-1)
		bestSin := -2.0
		for _, s := range f.cands[f.candStart[c]:f.candStart[c+1]] {
			sinEl := f.sinElevation(t, f.satPos[s])
			if sinEl < f.sinMask || sinEl <= bestSin {
				continue
			}
			best, bestSin = s, sinEl
		}
		f.finishAssignment(t, best)
	}
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
