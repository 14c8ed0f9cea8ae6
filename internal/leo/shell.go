// Package leo simulates satellite constellations: Walker-delta LEO shells
// with circular-orbit propagation (the Starlink Gen1 shell by default),
// geostationary satellites for the SatCom comparison, user terminals with
// epoch-based serving-satellite selection, gateway hand-off, bent-pipe
// path delays, handover schedules, and optional +Grid inter-satellite-link
// routing for the paper's "what if ISLs were on" future-work question.
//
// Latency in the reproduced experiments *emerges* from this geometry: the
// package computes true slant ranges from orbital motion at query time, so
// the ~20 ms minimum RTT and its variation across 15-second reallocation
// epochs are consequences of the constellation, not tuned constants.
package leo

import (
	"math"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// ShellConfig describes one Walker-delta shell.
type ShellConfig struct {
	Name           string
	AltKm          float64
	InclinationDeg float64
	Planes         int
	SatsPerPlane   int
	// PhasingF is the Walker phasing parameter: satellite k of plane p
	// is offset by PhasingF * p * 360/(Planes*SatsPerPlane) degrees of
	// argument of latitude.
	PhasingF int
}

// Starlink Gen1 is the shell that carried the service during the paper's
// campaign (553 km, 53°, 72 planes of 22).
func StarlinkGen1() ShellConfig {
	return ShellConfig{
		Name:           "starlink-gen1",
		AltKm:          550,
		InclinationDeg: 53,
		Planes:         72,
		SatsPerPlane:   22,
		PhasingF:       39,
	}
}

// SatID identifies a satellite within a constellation.
type SatID struct {
	Shell int
	Plane int
	Index int
}

// Shell is an instantiated Walker shell.
type Shell struct {
	cfg       ShellConfig
	radiusKm  float64
	incRad    float64
	periodSec float64
	// enabled[plane][idx] marks satellites that exist. The Feb-2022
	// fleet-growth event in the paper is reproduced by launching
	// additional satellites mid-campaign.
	enabled [][]bool
	nAlive  int
}

// NewShell instantiates a shell with all satellites enabled.
func NewShell(cfg ShellConfig) *Shell {
	s := &Shell{
		cfg:       cfg,
		radiusKm:  geo.EarthRadiusKm + cfg.AltKm,
		incRad:    geo.Radians(cfg.InclinationDeg),
		periodSec: geo.OrbitalPeriod(cfg.AltKm).Seconds(),
	}
	s.enabled = make([][]bool, cfg.Planes)
	for p := range s.enabled {
		s.enabled[p] = make([]bool, cfg.SatsPerPlane)
		for i := range s.enabled[p] {
			s.enabled[p][i] = true
		}
	}
	s.nAlive = cfg.Planes * cfg.SatsPerPlane
	return s
}

// NewPartialShell instantiates a shell with only the first aliveFraction
// of each plane populated — a coarse model of a constellation still being
// launched.
func NewPartialShell(cfg ShellConfig, aliveFraction float64) *Shell {
	s := NewShell(cfg)
	keep := int(math.Round(aliveFraction * float64(cfg.SatsPerPlane)))
	if keep < 0 {
		keep = 0
	}
	if keep > cfg.SatsPerPlane {
		keep = cfg.SatsPerPlane
	}
	s.nAlive = 0
	for p := range s.enabled {
		for i := range s.enabled[p] {
			s.enabled[p][i] = i < keep
			if s.enabled[p][i] {
				s.nAlive++
			}
		}
	}
	return s
}

// Config returns the shell configuration.
func (s *Shell) Config() ShellConfig { return s.cfg }

// Alive returns the number of enabled satellites.
func (s *Shell) Alive() int { return s.nAlive }

// SetEnabled marks a satellite as existing or not.
func (s *Shell) SetEnabled(plane, idx int, on bool) {
	if s.enabled[plane][idx] != on {
		s.enabled[plane][idx] = on
		if on {
			s.nAlive++
		} else {
			s.nAlive--
		}
	}
}

// Enabled reports whether a satellite exists.
func (s *Shell) Enabled(plane, idx int) bool { return s.enabled[plane][idx] }

// Position returns the ECEF position of satellite (plane, idx) at t.
func (s *Shell) Position(plane, idx int, t sim.Time) geo.ECEF {
	cfg := s.cfg
	tSec := t.Seconds()

	// Right ascension of the ascending node, spread over 360° (delta
	// pattern), fixed in inertial space.
	raan := 2 * math.Pi * float64(plane) / float64(cfg.Planes)
	// Argument of latitude: in-plane spacing + Walker phasing + motion.
	u := 2*math.Pi*float64(idx)/float64(cfg.SatsPerPlane) +
		2*math.Pi*float64(cfg.PhasingF)*float64(plane)/float64(cfg.Planes*cfg.SatsPerPlane) +
		2*math.Pi*tSec/s.periodSec

	sinU, cosU := math.Sincos(u)
	sinI, cosI := math.Sincos(s.incRad)
	// Earth rotation carries the ECEF frame eastward; subtract it from
	// the inertial RAAN to get ECEF longitude of the node.
	node := raan - geo.EarthRotationRadS*tSec
	sinN, cosN := math.Sincos(node)

	r := s.radiusKm
	return geo.ECEF{
		X: r * (cosN*cosU - sinN*sinU*cosI),
		Y: r * (sinN*cosU + cosN*sinU*cosI),
		Z: r * (sinU * sinI),
	}
}

// Constellation is a set of shells. It holds no per-instant state:
// positions are a pure function of (shell geometry, instant), and callers
// that want a whole-shell table own the Snapshot they fill (snapshot.go).
type Constellation struct {
	shells []*Shell
}

// NewConstellation builds a constellation from shells.
func NewConstellation(shells ...*Shell) *Constellation {
	return &Constellation{shells: shells}
}

// Shells returns the underlying shells.
func (c *Constellation) Shells() []*Shell { return c.shells }

// Position returns the ECEF position of a satellite at t.
func (c *Constellation) Position(id SatID, t sim.Time) geo.ECEF {
	return c.shells[id.Shell].Position(id.Plane, id.Index, t)
}

// ForEach calls fn for every enabled satellite.
func (c *Constellation) ForEach(fn func(id SatID)) {
	for si, sh := range c.shells {
		for p := 0; p < sh.cfg.Planes; p++ {
			for i := 0; i < sh.cfg.SatsPerPlane; i++ {
				if sh.enabled[p][i] {
					fn(SatID{Shell: si, Plane: p, Index: i})
				}
			}
		}
	}
}

// Alive returns the total number of enabled satellites.
func (c *Constellation) Alive() int {
	n := 0
	for _, sh := range c.shells {
		n += sh.Alive()
	}
	return n
}

// GeoSatellite is a geostationary satellite parked over a longitude.
type GeoSatellite struct {
	LonDeg float64
}

// GeoAltitudeKm is the geostationary orbit altitude.
const GeoAltitudeKm = 35786

// Position returns the (time-independent) ECEF position of the satellite.
func (g GeoSatellite) Position() geo.ECEF {
	return geo.LatLon{LatDeg: 0, LonDeg: g.LonDeg, AltKm: GeoAltitudeKm}.ToECEF()
}

// BentPipeDelay returns the one-way user→satellite→teleport propagation
// delay through the GEO satellite. For a European user this is ~240 ms,
// which with processing overheads yields the ~600 ms RTTs the paper
// attributes to traditional SatCom.
func (g GeoSatellite) BentPipeDelay(user, teleport geo.LatLon) time.Duration {
	sat := g.Position()
	up := user.ToECEF().Distance(sat)
	down := sat.Distance(teleport.ToECEF())
	return geo.RadioDelay(up + down)
}

// Visible reports whether the GEO satellite clears minElevationDeg at the
// user location.
func (g GeoSatellite) Visible(user geo.LatLon, minElevationDeg float64) bool {
	return geo.ElevationDegECEF(user.ToECEF(), g.Position()) >= minElevationDeg
}
