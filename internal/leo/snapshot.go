package leo

import (
	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// Snapshot holds the ECEF position of every satellite slot of a
// constellation at one instant. Positions are stored for disabled slots
// too (propagation is well-defined either way), so mid-campaign fleet
// growth never invalidates a snapshot — callers filter on Enabled at use
// time, exactly like ForEach does.
//
// A Snapshot is storage its caller owns: the zero value is ready for
// FillSnapshot, and refilling it for the next instant reuses the tables.
type Snapshot struct {
	At     sim.Time
	pos    [][]geo.ECEF // [shell][plane*satsPerPlane+idx]
	stride []int        // satellites per plane, per shell
}

// Position returns the satellite position recorded in the snapshot. It is
// bit-identical to Constellation.Position at the snapshot instant: both
// are produced by the same Shell.Position arithmetic.
func (s *Snapshot) Position(id SatID) geo.ECEF {
	return s.pos[id.Shell][id.Plane*s.stride[id.Shell]+id.Index]
}

// ShellPositions returns the flat position slice of one shell, indexed by
// plane*SatsPerPlane+idx: whole-shell sweeps (the ISL router, the fleet
// cell index) index positions by flat id, so handing out the backing
// slice avoids a SatID round-trip per satellite.
// The slice is the snapshot's storage — valid until the next FillSnapshot
// into it, and not to be mutated.
func (s *Snapshot) ShellPositions(shell int) []geo.ECEF {
	return s.pos[shell]
}

// FillSnapshot overwrites s with every satellite position at instant at,
// growing s's tables only when they are too small for this constellation.
// The constellation keeps nothing: a caller that reads each position many
// times per instant (fleet reassignment, an ISL router) holds one Snapshot
// and refills it, so a fresh instant costs the propagation arithmetic and
// no allocation.
func (c *Constellation) FillSnapshot(s *Snapshot, at sim.Time) {
	n := len(c.shells)
	if cap(s.pos) < n {
		s.pos = make([][]geo.ECEF, n)
		s.stride = make([]int, n)
	}
	s.At, s.pos, s.stride = at, s.pos[:n], s.stride[:n]
	for si, sh := range c.shells {
		planes, per := sh.cfg.Planes, sh.cfg.SatsPerPlane
		flat := s.pos[si]
		if cap(flat) < planes*per {
			flat = make([]geo.ECEF, planes*per)
		}
		flat = flat[:planes*per]
		for p := 0; p < planes; p++ {
			for i := 0; i < per; i++ {
				flat[p*per+i] = sh.Position(p, i, at)
			}
		}
		s.pos[si] = flat
		s.stride[si] = per
	}
}

// SnapshotAt returns a freshly allocated snapshot for instant at.
func (c *Constellation) SnapshotAt(at sim.Time) *Snapshot {
	s := new(Snapshot)
	c.FillSnapshot(s, at)
	return s
}
