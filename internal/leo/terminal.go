package leo

import (
	"math"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// Gateway is a ground station that connects satellites to a terrestrial
// point of presence. The paper observes Starlink traffic from Belgium
// exiting in the Netherlands and Germany.
type Gateway struct {
	Name string
	Pos  geo.LatLon
	// PoP names the internet exchange the gateway feeds into.
	PoP string
}

// GatewayMaskDeg is the elevation mask of a gateway antenna: gateway
// dishes track lower than user terminals.
const GatewayMaskDeg = 10.0

// Epoch is the serving-satellite and capacity reallocation interval:
// Starlink reassigns every 15 s (Pan et al. and the Multifaceted paper
// both see steps on that grid). The testbed terminal, the access link's
// per-epoch draws and the fleet's default epoch all read it.
const Epoch = 15 * time.Second

// TerminalMaskDeg is the elevation mask of a Starlink dish's phased
// array: a satellite lower in its sky cannot serve it. The testbed
// terminal and the fleet's default mask both read it.
const TerminalMaskDeg = 25.0

// TerminalConfig configures a user terminal.
type TerminalConfig struct {
	Pos geo.LatLon
}

// DefaultTerminalConfig returns the dishy defaults at a position.
func DefaultTerminalConfig(pos geo.LatLon) TerminalConfig {
	return TerminalConfig{Pos: pos}
}

// Assignment is the serving satellite and gateway for one epoch.
type Assignment struct {
	Sat     SatID
	Gateway int // index into the terminal's gateway list
	OK      bool
}

// GatewayGeom is one gateway's geometry as satellite-to-ground selection
// uses it.
type GatewayGeom struct {
	ECEF geo.ECEF
	Norm float64 // |ECEF|
}

// sinGatewayMask is the sine of GatewayMaskDeg, the form Best tests.
var sinGatewayMask = math.Sin(geo.Radians(GatewayMaskDeg))

// GatewayTable is a gateway set's geometry, precomputed once so that the
// selection loops never redo a ToECEF conversion or a mask sine per
// satellite. leo.Terminal and the fleet both choose gateways with
// its Best.
type GatewayTable []GatewayGeom

// NewGatewayTable precomputes the geometry of gws, in their order.
func NewGatewayTable(gws []Gateway) GatewayTable {
	gt := make(GatewayTable, len(gws))
	for i, gw := range gws {
		e := gw.Pos.ToECEF()
		gt[i] = GatewayGeom{ECEF: e, Norm: e.Norm()}
	}
	return gt
}

// Best returns the index of the gateway with the shortest slant range that
// sees the satellite above GatewayMaskDeg, and that range in km; -1 when
// none does. The mask test is the cross-multiplied sine comparison
// d·ĝ ≥ sin(mask)·|d| on the precomputed geometry, and the slant range
// reuses |d|. Ties keep the lowest index.
func (gt GatewayTable) Best(satPos geo.ECEF) (best int, rangeKm float64) {
	best = -1
	for i := range gt {
		g := &gt[i]
		d := satPos.Sub(g.ECEF)
		dn := d.Norm()
		if d.Dot(g.ECEF) < sinGatewayMask*dn*g.Norm {
			continue
		}
		if best < 0 || dn < rangeKm {
			best, rangeKm = i, dn
		}
	}
	return best, rangeKm
}

// pruneMarginRad pads the orbital candidate window beyond the exact
// visibility bound. The bound itself is exact spherical geometry; the pad
// only has to dominate floating-point rounding in the window arithmetic,
// so ~0.3° is already three hundred billion times larger than needed.
const pruneMarginRad = 0.005

// Terminal is a user terminal attached to a constellation. It selects a
// serving satellite per epoch (highest elevation among satellites that can
// also see a gateway) and exposes the resulting bent-pipe one-way delay as
// a function of time, in the form netem links consume.
//
// Selection runs on a geometry fast path: candidate satellites are
// enumerated per orbital plane from the argument-of-latitude window that
// can possibly clear the elevation mask (a 550 km satellite above a 25°
// mask is within ~9° great-circle of the observer, so each plane
// contributes at most a few candidates), and all visibility checks are
// ECEF-native sine comparisons against precomputed observer geometry. The
// result is identical to the naive all-satellite scan in degrees, which
// the equivalence tests keep as their oracle. There is no second scan:
// the window is exact spherical geometry padded by pruneMarginRad, and
// where the bound is useless (λ ≥ π) it is clamped so every plane
// contributes all of its satellites.
//
// Terminal is not safe for concurrent use; the simulation is
// single-threaded.
type Terminal struct {
	cfg      TerminalConfig
	con      *Constellation
	gateways []Gateway

	// assign memoizes the assignment of the last epoch asked for. Every
	// campaign walks one forward-moving clock, so one slot holds all the
	// reuse there is (EXPERIMENTS.md "Cache audit"); a caller that goes
	// back in time recomputes. A memo, never state.
	assignEpoch int64
	assign      Assignment
	assignValid bool

	// Observer geometry, fixed for the terminal's lifetime: maskDeg is
	// TerminalMaskDeg (in-package tests lower it with sinMask).
	maskDeg float64
	posECEF geo.ECEF
	posNorm float64
	// upX/upY/upZ is the unit local-up vector posECEF/|posECEF|.
	upX, upY, upZ float64
	sinMask       float64
	gws           GatewayTable

	// delay memoizes the last computed delay on a coarse time quantum:
	// satellites move at ~7.5 km/s, so the slant range drifts by well
	// under a microsecond of propagation per 100 ms quantum.
	delayQuantumNS int64
	delayQuantum   int64
	delay          time.Duration // -1 records a no-coverage window
	delayValid     bool

	obs *termObs
}

// termObs counts the terminal's selection-path and cache behavior —
// the observable half of the geometry fast path's perf story. Nil when
// observability is disabled.
type termObs struct {
	assignPruned *obs.Counter
	delayHit     *obs.Counter
	delayMiss    *obs.Counter
}

// Observe attaches metrics to the terminal. A nil registry is a no-op.
func (t *Terminal) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.obs = &termObs{
		assignPruned: reg.Counter("leo.assign.pruned"),
		delayHit:     reg.Counter("leo.delay.cache_hit"),
		delayMiss:    reg.Counter("leo.delay.cache_miss"),
	}
}

// NewTerminal creates a terminal using the given constellation and
// gateway set.
func NewTerminal(cfg TerminalConfig, con *Constellation, gateways []Gateway) *Terminal {
	t := &Terminal{
		cfg:            cfg,
		con:            con,
		gateways:       gateways,
		maskDeg:        TerminalMaskDeg,
		delayQuantumNS: int64(100 * time.Millisecond),
	}
	t.posECEF = cfg.Pos.ToECEF()
	t.posNorm = t.posECEF.Norm()
	if t.posNorm > 0 {
		t.upX = t.posECEF.X / t.posNorm
		t.upY = t.posECEF.Y / t.posNorm
		t.upZ = t.posECEF.Z / t.posNorm
	}
	t.sinMask = math.Sin(geo.Radians(t.maskDeg))
	t.gws = NewGatewayTable(gateways)
	return t
}

// epochNS is Epoch in the nanoseconds of a sim.Time.
const epochNS = int64(Epoch)

// epochOf returns the epoch number containing instant at.
func (t *Terminal) epochOf(at sim.Time) int64 { return int64(at) / epochNS }

// AssignmentAt returns the serving assignment for the epoch containing at.
func (t *Terminal) AssignmentAt(at sim.Time) Assignment {
	ep := t.epochOf(at)
	if !t.assignValid || t.assignEpoch != ep {
		t.assign = t.computeAssignment(sim.Time(ep * epochNS))
		t.assignEpoch, t.assignValid = ep, true
	}
	return t.assign
}

// scanState carries the running argmax of a candidate scan. Elevation is
// compared as its sine — monotone over [-90°, 90°], so the argmax and the
// mask test are unchanged while every asin disappears from the loop.
type scanState struct {
	best    Assignment
	bestSin float64
}

func newScanState() scanState {
	// The naive scan seeds its best elevation at -1°; mirror that so the
	// fast path degrades identically for sub-horizon masks.
	return scanState{bestSin: math.Sin(geo.Radians(-1))}
}

// consider tests one candidate satellite position against the terminal
// mask, the running best and gateway reachability: a satellite that no
// gateway sees is skipped (the fleet, which scans far more terminals,
// declares an outage instead).
func (t *Terminal) consider(st *scanState, id SatID, satPos geo.ECEF) {
	d := satPos.Sub(t.posECEF)
	dn := d.Norm()
	sinEl := d.Dot(t.posECEF) / (dn * t.posNorm)
	if sinEl < t.sinMask || sinEl <= st.bestSin {
		return
	}
	gw, _ := t.gws.Best(satPos)
	if gw < 0 {
		return
	}
	st.best = Assignment{Sat: id, Gateway: gw, OK: true}
	st.bestSin = sinEl
}

// computeAssignment selects, at the epoch start, the visible satellite
// with the highest elevation from the terminal among those that can also
// reach a gateway; ties in gateway choice go to the shortest downlink. It
// scans only the satellites whose argument of latitude falls inside the
// per-plane window that can clear the mask.
//
// For plane with ascending-node longitude N and inclination i, the unit
// satellite direction at argument of latitude u is p̂·cos u + q̂·sin u with
// p̂ = (cos N, sin N, 0) and q̂ = (-sin N·cos i, cos N·cos i, sin i). Its
// dot product with the observer's unit up-vector û is therefore
// A·cos u + B·sin u = C·cos(u-φ) with A = û·p̂, B = û·q̂. Visibility
// requires that dot to reach cos λmax (λmax the coverage central angle
// from the mask and shell radius, clamped at π), i.e. |u-φ| ≤
// acos(cos λmax / C) — and no satellite of a plane with C < cos λmax is
// ever visible at all. A plane with C = 0 (its pole is the observer's
// up) sees every satellite at a right angle, in view iff cos λmax ≤ 0.
func (t *Terminal) computeAssignment(at sim.Time) Assignment {
	if t.obs != nil {
		t.obs.assignPruned.Inc()
	}
	st := newScanState()
	tSec := at.Seconds()
	for si, sh := range t.con.shells {
		cfg := sh.cfg
		planes, per := cfg.Planes, cfg.SatsPerPlane
		if planes <= 0 || per <= 0 {
			continue
		}
		// λ ≥ π (a mask at or below -90°, or a "shell" not above the
		// observer) bounds nothing: cos λ = -1 widens each plane to all
		// of its satellites.
		lam := min(math.Pi, geo.CoverageCentralAngleRad(t.posNorm, sh.radiusKm, t.maskDeg)+pruneMarginRad)
		cosLim := math.Cos(lam)
		sinI, cosI := math.Sincos(sh.incRad)
		motion := 2 * math.Pi * tSec / sh.periodSec
		step := 2 * math.Pi / float64(per)
		for p := 0; p < planes; p++ {
			raan := 2 * math.Pi * float64(p) / float64(planes)
			node := raan - geo.EarthRotationRadS*tSec
			sinN, cosN := math.Sincos(node)
			a := t.upX*cosN + t.upY*sinN
			b := cosI*(t.upY*cosN-t.upX*sinN) + t.upZ*sinI
			c2 := a*a + b*b
			if cosLim > 0 && c2 <= cosLim*cosLim {
				continue // plane's closest approach never clears the mask
			}
			c := math.Sqrt(c2)
			delta := math.Pi // c = 0 here only when cosLim ≤ 0: all in view
			if c > 0 {
				switch x := cosLim / c; {
				case x >= 1:
					continue
				case x > -1:
					delta = math.Acos(x)
				}
			}
			phi := math.Atan2(b, a)
			base := 2*math.Pi*float64(cfg.PhasingF)*float64(p)/float64(planes*per) + motion
			k0 := int(math.Ceil((phi - delta - base) / step))
			k1 := int(math.Floor((phi + delta - base) / step))
			if k1-k0+1 >= per {
				k0, k1 = 0, per-1
			}
			for k := k0; k <= k1; k++ {
				idx := k % per
				if idx < 0 {
					idx += per
				}
				if !sh.enabled[p][idx] {
					continue
				}
				t.consider(&st, SatID{Shell: si, Plane: p, Index: idx}, sh.Position(p, idx, at))
			}
		}
	}
	return st.best
}

// DelayAt returns the one-way bent-pipe propagation delay (terminal →
// serving satellite → gateway) at instant at. When no satellite is
// serving (constellation gap), it returns ok=false.
func (t *Terminal) DelayAt(at sim.Time) (time.Duration, bool) {
	q := int64(at) / t.delayQuantumNS
	if t.delayValid && t.delayQuantum == q {
		if t.obs != nil {
			t.obs.delayHit.Inc()
		}
		return t.delay, t.delay >= 0
	}
	if t.obs != nil {
		t.obs.delayMiss.Inc()
	}
	a := t.AssignmentAt(at)
	var d time.Duration = -1
	if a.OK {
		satPos := t.con.Position(a.Sat, at)
		up := t.posECEF.Distance(satPos)
		down := satPos.Distance(t.gws[a.Gateway].ECEF)
		d = geo.RadioDelay(up + down)
	}
	t.delayQuantum, t.delay, t.delayValid = q, d, true
	return d, d >= 0
}

// GatewayAt returns the gateway in use at an instant, or nil during gaps.
func (t *Terminal) GatewayAt(at sim.Time) *Gateway {
	a := t.AssignmentAt(at)
	if !a.OK {
		return nil
	}
	return &t.gateways[a.Gateway]
}
