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
	// MinElevationDeg is the gateway antenna mask.
	MinElevationDeg float64
}

// TerminalConfig configures a user terminal.
type TerminalConfig struct {
	Pos geo.LatLon
	// MinElevationDeg is the phased-array mask; Starlink dishes use 25°.
	MinElevationDeg float64
	// Epoch is the serving-satellite reallocation interval. Starlink
	// reassigns every 15 s.
	Epoch time.Duration
}

// DefaultTerminalConfig returns the dishy defaults at a position.
func DefaultTerminalConfig(pos geo.LatLon) TerminalConfig {
	return TerminalConfig{Pos: pos, MinElevationDeg: 25, Epoch: 15 * time.Second}
}

// Assignment is the serving satellite and gateway for one epoch.
type Assignment struct {
	Sat     SatID
	Gateway int // index into the terminal's gateway list
	OK      bool
}

// gatewayGeom is the per-gateway geometry precomputed once in NewTerminal
// so the candidate loops never redo a ToECEF conversion or re-apply the
// default-mask rule per satellite per call.
type gatewayGeom struct {
	ecef    geo.ECEF
	norm    float64 // |ecef|
	sinMask float64 // sin of the normalized mask (0 => 10°)
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
// the equivalence tests keep as their oracle; when the pruned window finds
// no serving satellite the terminal falls back to a full scan, so
// correctness never rests on the pruning bound.
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
	epochNS     int64
	assignEpoch int64
	assign      Assignment
	assignValid bool

	// Observer geometry, fixed for the terminal's lifetime.
	posECEF geo.ECEF
	posNorm float64
	// upX/upY/upZ is the unit local-up vector posECEF/|posECEF|.
	upX, upY, upZ float64
	sinMask       float64
	gwGeom        []gatewayGeom

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
	assignFull   *obs.Counter
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
		assignFull:   reg.Counter("leo.assign.full_scan"),
		delayHit:     reg.Counter("leo.delay.cache_hit"),
		delayMiss:    reg.Counter("leo.delay.cache_miss"),
	}
}

// NewTerminal creates a terminal using the given constellation and
// gateway set.
func NewTerminal(cfg TerminalConfig, con *Constellation, gateways []Gateway) *Terminal {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 15 * time.Second
	}
	t := &Terminal{
		cfg:            cfg,
		con:            con,
		gateways:       gateways,
		epochNS:        int64(cfg.Epoch),
		delayQuantumNS: int64(100 * time.Millisecond),
	}
	t.posECEF = cfg.Pos.ToECEF()
	t.posNorm = t.posECEF.Norm()
	if t.posNorm > 0 {
		t.upX = t.posECEF.X / t.posNorm
		t.upY = t.posECEF.Y / t.posNorm
		t.upZ = t.posECEF.Z / t.posNorm
	}
	t.sinMask = math.Sin(geo.Radians(cfg.MinElevationDeg))
	t.gwGeom = make([]gatewayGeom, len(gateways))
	for i, gw := range gateways {
		mask := gw.MinElevationDeg
		if mask == 0 {
			mask = 10 // gateway dishes track lower than user terminals
		}
		e := gw.Pos.ToECEF()
		t.gwGeom[i] = gatewayGeom{ecef: e, norm: e.Norm(), sinMask: math.Sin(geo.Radians(mask))}
	}
	return t
}

// epochOf returns the epoch number containing instant at.
func (t *Terminal) epochOf(at sim.Time) int64 { return int64(at) / t.epochNS }

// AssignmentAt returns the serving assignment for the epoch containing at.
func (t *Terminal) AssignmentAt(at sim.Time) Assignment {
	ep := t.epochOf(at)
	if !t.assignValid || t.assignEpoch != ep {
		t.assign = t.computeAssignment(sim.Time(ep * t.epochNS))
		t.assignEpoch, t.assignValid = ep, true
	}
	return t.assign
}

// computeAssignment selects, at the epoch start, the visible satellite
// with the highest elevation from the terminal among those that can also
// reach a gateway; ties in gateway choice go to the shortest downlink.
func (t *Terminal) computeAssignment(at sim.Time) Assignment {
	if a := t.computeAssignmentPruned(at); a.OK {
		if t.obs != nil {
			t.obs.assignPruned.Inc()
		}
		return a
	}
	// Empty pruned set (coverage gap, exotic mask, latitude outside the
	// shell): decide from the full scan so the answer never depends on
	// the pruning bound.
	if t.obs != nil {
		t.obs.assignFull.Inc()
	}
	return t.computeAssignmentFull(at)
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
// mask, the running best and gateway reachability.
func (t *Terminal) consider(st *scanState, id SatID, satPos geo.ECEF) {
	d := satPos.Sub(t.posECEF)
	dn := d.Norm()
	sinEl := d.Dot(t.posECEF) / (dn * t.posNorm)
	if sinEl < t.sinMask || sinEl <= st.bestSin {
		return
	}
	gw := t.bestGateway(satPos)
	if gw < 0 {
		return
	}
	st.best = Assignment{Sat: id, Gateway: gw, OK: true}
	st.bestSin = sinEl
}

// computeAssignmentPruned scans only the satellites whose argument of
// latitude falls inside the per-plane window that can clear the mask.
//
// For plane with ascending-node longitude N and inclination i, the unit
// satellite direction at argument of latitude u is p̂·cos u + q̂·sin u with
// p̂ = (cos N, sin N, 0) and q̂ = (-sin N·cos i, cos N·cos i, sin i). Its
// dot product with the observer's unit up-vector û is therefore
// A·cos u + B·sin u = C·cos(u-φ) with A = û·p̂, B = û·q̂. Visibility
// requires that dot to exceed cos λmax (λmax the coverage central angle
// from the mask and shell radius), i.e. |u-φ| ≤ acos(cos λmax / C) — and
// no satellite of a plane with C < cos λmax is ever visible at all.
func (t *Terminal) computeAssignmentPruned(at sim.Time) Assignment {
	st := newScanState()
	tSec := at.Seconds()
	for si, sh := range t.con.shells {
		cfg := sh.cfg
		planes, per := cfg.Planes, cfg.SatsPerPlane
		if planes <= 0 || per <= 0 {
			continue
		}
		lam := geo.CoverageCentralAngleRad(t.posNorm, sh.radiusKm, t.cfg.MinElevationDeg) + pruneMarginRad
		if lam >= math.Pi {
			// No useful bound (mask at/below -90°, or the "shell" is not
			// above the observer): let the caller run the full scan.
			return Assignment{}
		}
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
			if c == 0 {
				continue
			}
			var delta float64
			switch x := cosLim / c; {
			case x >= 1:
				continue
			case x <= -1:
				delta = math.Pi
			default:
				delta = math.Acos(x)
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

// computeAssignmentFull is the ECEF-native full scan over every enabled
// satellite — the pruned path's fallback. Each position is read once, so
// it is computed where it is used; no table.
func (t *Terminal) computeAssignmentFull(at sim.Time) Assignment {
	st := newScanState()
	for si, sh := range t.con.shells {
		for p := 0; p < sh.cfg.Planes; p++ {
			for i := 0; i < sh.cfg.SatsPerPlane; i++ {
				if !sh.enabled[p][i] {
					continue
				}
				t.consider(&st, SatID{Shell: si, Plane: p, Index: i}, sh.Position(p, i, at))
			}
		}
	}
	return st.best
}

// bestGateway returns the index of the gateway with the shortest slant
// range that sees the satellite above its mask, or -1. The mask test is
// the cross-multiplied sine comparison d·ĝ ≥ sin(mask)·|d| on the
// precomputed gateway geometry, and the slant range reuses |d|.
func (t *Terminal) bestGateway(satPos geo.ECEF) int {
	best := -1
	bestRange := 0.0
	for i := range t.gwGeom {
		g := &t.gwGeom[i]
		d := satPos.Sub(g.ecef)
		dn := d.Norm()
		if d.Dot(g.ecef) < g.sinMask*dn*g.norm {
			continue
		}
		if best < 0 || dn < bestRange {
			best, bestRange = i, dn
		}
	}
	return best
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
		down := satPos.Distance(t.gwGeom[a.Gateway].ecef)
		d = geo.RadioDelay(up + down)
	}
	t.delayQuantum, t.delay, t.delayValid = q, d, true
	return d, d >= 0
}

// DelayFunc adapts the terminal to the netem link interface: instants
// with no serving satellite fall back to fallback (packets in that window
// are typically dropped by the outage schedule anyway).
func (t *Terminal) DelayFunc(fallback time.Duration) func(sim.Time) time.Duration {
	return func(at sim.Time) time.Duration {
		if d, ok := t.DelayAt(at); ok {
			return d
		}
		return fallback
	}
}

// GatewayAt returns the gateway in use at an instant, or nil during gaps.
func (t *Terminal) GatewayAt(at sim.Time) *Gateway {
	a := t.AssignmentAt(at)
	if !a.OK {
		return nil
	}
	return &t.gateways[a.Gateway]
}

// Handover marks a serving-satellite change at an epoch boundary.
type Handover struct {
	At          sim.Time
	From, To    Assignment
	GatewayMove bool
}

// Handovers lists the serving-satellite changes in [start, end). The
// campaign turns these into micro-outage schedules for the access link.
func (t *Terminal) Handovers(start, end sim.Time) []Handover {
	var out []Handover
	first := t.epochOf(start) + 1
	last := t.epochOf(end)
	prev := t.AssignmentAt(sim.Time((first - 1) * t.epochNS))
	for ep := first; ep <= last; ep++ {
		at := sim.Time(ep * t.epochNS)
		if at >= end {
			break
		}
		cur := t.AssignmentAt(at)
		if cur != prev {
			out = append(out, Handover{
				At:          at,
				From:        prev,
				To:          cur,
				GatewayMove: cur.Gateway != prev.Gateway,
			})
		}
		prev = cur
	}
	return out
}
