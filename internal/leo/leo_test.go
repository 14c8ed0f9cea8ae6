package leo

import (
	"math"
	"testing"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

var louvain = geo.LatLon{LatDeg: 50.67, LonDeg: 4.61}

func testGateways() []Gateway {
	return []Gateway{
		{Name: "nl-gw", Pos: geo.LatLon{LatDeg: 52.3, LonDeg: 4.8}, PoP: "AMS"},
		{Name: "de-gw", Pos: geo.LatLon{LatDeg: 50.1, LonDeg: 8.7}, PoP: "FRA"},
	}
}

func TestShellSatelliteAltitude(t *testing.T) {
	sh := NewShell(StarlinkGen1())
	for _, at := range []sim.Time{0, sim.Time(time.Hour), sim.Time(24 * time.Hour)} {
		p := sh.Position(10, 5, at)
		alt := p.Norm() - geo.EarthRadiusKm
		if math.Abs(alt-550) > 1e-6 {
			t.Fatalf("altitude at %v = %v, want 550", at, alt)
		}
	}
}

func TestShellLatitudeBoundedByInclination(t *testing.T) {
	sh := NewShell(StarlinkGen1())
	maxLat := 0.0
	for p := 0; p < 72; p += 9 {
		for i := 0; i < 22; i += 3 {
			for s := 0; s < 6000; s += 97 {
				ll := sh.Position(p, i, sim.Time(s)*sim.Time(time.Second)).ToLatLon()
				if a := math.Abs(ll.LatDeg); a > maxLat {
					maxLat = a
				}
			}
		}
	}
	if maxLat > 53.0001 {
		t.Errorf("max |latitude| = %v, must not exceed inclination 53°", maxLat)
	}
	if maxLat < 50 {
		t.Errorf("max |latitude| = %v, orbit should reach near 53°", maxLat)
	}
}

func TestShellPeriodicity(t *testing.T) {
	sh := NewShell(StarlinkGen1())
	period := geo.OrbitalPeriod(550)
	p0 := sh.Position(0, 0, 0)
	// After one orbital period the satellite returns to the same
	// inertial spot; in ECEF it is offset by Earth rotation, so compare
	// geocentric latitude (unaffected by the frame rotation).
	p1 := sh.Position(0, 0, sim.Time(period))
	l0, l1 := p0.ToLatLon(), p1.ToLatLon()
	if math.Abs(l0.LatDeg-l1.LatDeg) > 0.01 {
		t.Errorf("latitude after one period: %v vs %v", l0.LatDeg, l1.LatDeg)
	}
}

func TestSatelliteMoves(t *testing.T) {
	sh := NewShell(StarlinkGen1())
	p0 := sh.Position(0, 0, 0)
	p1 := sh.Position(0, 0, sim.Time(time.Second))
	v := p0.Distance(p1) // km over 1 s
	// Orbital speed at 550 km is ~7.6 km/s.
	if v < 7 || v > 8.2 {
		t.Errorf("orbital speed = %v km/s, want ~7.6", v)
	}
}

func TestSatellitesSpreadInPlane(t *testing.T) {
	sh := NewShell(StarlinkGen1())
	p0 := sh.Position(0, 0, 0)
	p1 := sh.Position(0, 11, 0) // half the plane away
	// Should be roughly antipodal on the orbit: separation ~2*(R+alt).
	want := 2 * (geo.EarthRadiusKm + 550)
	if d := p0.Distance(p1); math.Abs(d-want) > 100 {
		t.Errorf("opposite in-plane separation = %v, want ~%v", d, want)
	}
}

func TestPartialShell(t *testing.T) {
	sh := NewPartialShell(StarlinkGen1(), 0.5)
	if sh.Alive() != 72*11 {
		t.Errorf("alive = %d, want %d", sh.Alive(), 72*11)
	}
	if !sh.Enabled(0, 0) || sh.Enabled(0, 21) {
		t.Error("partial shell population wrong")
	}
	sh.SetEnabled(0, 21, true)
	if sh.Alive() != 72*11+1 {
		t.Error("SetEnabled did not update count")
	}
	sh.SetEnabled(0, 21, true) // idempotent
	if sh.Alive() != 72*11+1 {
		t.Error("SetEnabled not idempotent")
	}
}

func TestTerminalFindsServingSatellite(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	term := NewTerminal(DefaultTerminalConfig(louvain), con, testGateways())

	misses := 0
	for ep := 0; ep < 200; ep++ {
		at := sim.Time(ep) * sim.Time(15*time.Second)
		a := term.AssignmentAt(at)
		if !a.OK {
			misses++
			continue
		}
		// The serving satellite must actually clear the mask.
		ll := con.Position(a.Sat, at).ToLatLon()
		if el := geo.ElevationDeg(louvain, ll); el < 25 {
			t.Fatalf("epoch %d: serving satellite at elevation %v < mask", ep, el)
		}
	}
	// The full Gen1 shell covers Belgium essentially always.
	if misses > 0 {
		t.Errorf("%d/200 epochs without coverage on a full shell", misses)
	}
}

func TestTerminalDelayRange(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	term := NewTerminal(DefaultTerminalConfig(louvain), con, testGateways())

	minD, maxD := time.Hour, time.Duration(0)
	for ep := 0; ep < 2000; ep++ {
		at := sim.Time(ep) * sim.Time(15*time.Second)
		d, ok := term.DelayAt(at)
		if !ok {
			continue
		}
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	// Bent-pipe one-way: at least the zenith bound up+down (~3.7 ms),
	// at most a few tens of ms for low-elevation geometry.
	if minD < 3600*time.Microsecond {
		t.Errorf("min one-way delay %v below physical floor", minD)
	}
	if minD > 8*time.Millisecond {
		t.Errorf("min one-way delay %v implausibly high", minD)
	}
	if maxD > 20*time.Millisecond {
		t.Errorf("max one-way delay %v implausibly high for 550km bent pipe", maxD)
	}
}

func TestDelayFuncFallback(t *testing.T) {
	// Empty constellation: no coverage anywhere.
	con := NewConstellation(NewPartialShell(StarlinkGen1(), 0))
	term := NewTerminal(DefaultTerminalConfig(louvain), con, testGateways())
	f := term.DelayFunc(123 * time.Millisecond)
	if d := f(0); d != 123*time.Millisecond {
		t.Errorf("fallback = %v", d)
	}
}

func TestAssignmentStableWithinEpoch(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	term := NewTerminal(DefaultTerminalConfig(louvain), con, testGateways())
	a0 := term.AssignmentAt(sim.Time(30 * time.Second))
	a1 := term.AssignmentAt(sim.Time(44 * time.Second)) // same 15s epoch
	if a0 != a1 {
		t.Error("assignment changed within an epoch")
	}
}

func TestHandoversOccur(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	term := NewTerminal(DefaultTerminalConfig(louvain), con, testGateways())
	hs := term.Handovers(0, sim.Time(time.Hour))
	// LEO satellites cross the sky in minutes; an hour must contain
	// many handovers but they cannot happen every epoch (240 epochs).
	if len(hs) < 10 {
		t.Errorf("only %d handovers in an hour", len(hs))
	}
	if len(hs) >= 240 {
		t.Errorf("%d handovers in 240 epochs: assignment is thrashing", len(hs))
	}
	for _, h := range hs {
		if int64(h.At)%int64(15*time.Second) != 0 {
			t.Errorf("handover at %v not on an epoch boundary", h.At)
		}
		if h.From == h.To {
			t.Error("handover with no change")
		}
	}
}

func TestGatewayAt(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	term := NewTerminal(DefaultTerminalConfig(louvain), con, testGateways())
	gw := term.GatewayAt(0)
	if gw == nil {
		t.Fatal("no gateway on full shell")
	}
	if gw.PoP != "AMS" && gw.PoP != "FRA" {
		t.Errorf("unexpected PoP %q", gw.PoP)
	}
}

func TestGeoSatellite(t *testing.T) {
	g := GeoSatellite{LonDeg: 9} // over Europe, like the paper's provider
	if !g.Visible(louvain, 10) {
		t.Error("GEO bird at 9°E should be visible from Belgium")
	}
	teleport := geo.LatLon{LatDeg: 48.9, LonDeg: 2.3} // Paris teleport
	d := g.BentPipeDelay(louvain, teleport)
	// One-way through GEO: ~240 ms for a European user.
	if d < 230*time.Millisecond || d > 260*time.Millisecond {
		t.Errorf("GEO bent-pipe delay = %v, want ~240ms", d)
	}
	// Not visible from the poles.
	if g.Visible(geo.LatLon{LatDeg: 89, LonDeg: 0}, 10) {
		t.Error("GEO bird should not clear 10° from the pole")
	}
}

func TestISLShorterThanBentPipeForLongHaul(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	router := NewISLRouter(con, 0)
	singapore := geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}

	d, hops, ok := router.PathDelay(0, louvain, singapore, 25)
	if !ok {
		t.Fatal("no ISL path Louvain->Singapore on a full shell")
	}
	if hops < 5 {
		t.Errorf("only %d ISL hops to Singapore", hops)
	}
	// Straight-line great-circle at c is ~35 ms; ISL path must be a
	// small constant factor above it and far below the bent-pipe +
	// terrestrial-fiber alternative (~90+ ms one way).
	lower := geo.RadioDelay(geo.GreatCircleKm(louvain, singapore))
	if d < lower {
		t.Errorf("ISL delay %v beats the speed of light (floor %v)", d, lower)
	}
	if d > 3*lower {
		t.Errorf("ISL delay %v, want < 3x light floor %v", d, lower)
	}
}

func TestISLNoPathWithoutSatellites(t *testing.T) {
	con := NewConstellation(NewPartialShell(StarlinkGen1(), 0))
	router := NewISLRouter(con, 0)
	if _, _, ok := router.PathDelay(0, louvain, geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}, 25); ok {
		t.Error("found a path through an empty shell")
	}
}

// A router reuses its position table, distance arrays and heap between
// calls; a call must not see what an earlier one left there. Instants out
// of order, two endpoint pairs and a membership change in between, each
// answer compared with a router that has never been used.
func TestISLRouterReuseMatchesFresh(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	router := NewISLRouter(con, 0)
	dsts := []geo.LatLon{{LatDeg: 1.35, LonDeg: 103.82}, {LatDeg: 40.7, LonDeg: -74.0}}
	check := func(sec int64) {
		t.Helper()
		at := sim.Time(sec * int64(time.Second))
		for _, dst := range dsts {
			gd, gh, gok := router.PathDelay(at, louvain, dst, 25)
			wd, wh, wok := NewISLRouter(con, 0).PathDelay(at, louvain, dst, 25)
			if gd != wd || gh != wh || gok != wok {
				t.Fatalf("t=%ds dst=%v: reused router (%v,%d,%v) != fresh (%v,%d,%v)", sec, dst, gd, gh, gok, wd, wh, wok)
			}
		}
	}
	for _, sec := range []int64{0, 60, 15, 60, 7200, 0} {
		check(sec)
	}
	before, _, _ := router.PathDelay(0, louvain, dsts[0], 25)
	sh := con.Shells()[0]
	for p := 0; p < sh.Config().Planes; p += 2 {
		for i := 0; i < sh.Config().SatsPerPlane; i++ {
			sh.SetEnabled(p, i, false)
		}
	}
	check(0)
	if after, _, ok := router.PathDelay(0, louvain, dsts[0], 25); ok && after == before {
		t.Error("disabling every other plane left the route delay unchanged; membership change unexercised")
	}
}

func TestConstellationForEachCount(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	n := 0
	con.ForEach(func(SatID) { n++ })
	if n != 72*22 {
		t.Errorf("ForEach visited %d, want %d", n, 72*22)
	}
	if con.Alive() != 72*22 {
		t.Errorf("Alive = %d", con.Alive())
	}
}

func TestGatewayMoveObservedInHandovers(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	term := NewTerminal(DefaultTerminalConfig(louvain), con, testGateways())
	hs := term.Handovers(0, sim.Time(6*time.Hour))
	moves := 0
	for _, h := range hs {
		if h.GatewayMove {
			moves++
		}
	}
	// With AMS and FRA gateways both visible from Belgian-serving
	// satellites, exit changes must occur but not dominate.
	if moves == 0 {
		t.Error("no gateway moves in 6 hours; both exits should be used")
	}
	if moves == len(hs) {
		t.Error("every handover moved the gateway; selection is unstable")
	}
}

func TestPartialShellRaisesDelay(t *testing.T) {
	full := NewTerminal(DefaultTerminalConfig(louvain),
		NewConstellation(NewShell(StarlinkGen1())), testGateways())
	partial := NewTerminal(DefaultTerminalConfig(louvain),
		NewConstellation(NewPartialShell(StarlinkGen1(), 0.6)), testGateways())
	var fullSum, partSum time.Duration
	n := 0
	for ep := 0; ep < 400; ep++ {
		at := sim.Time(ep) * sim.Time(15*time.Second)
		fd, fok := full.DelayAt(at)
		pd, pok := partial.DelayAt(at)
		if fok && pok {
			fullSum += fd
			partSum += pd
			n++
		}
	}
	if n < 200 {
		t.Fatalf("too few comparable epochs: %d", n)
	}
	// Fewer satellites -> lower serving elevations -> longer slant
	// ranges on average (the Feb-2022 fleet-growth mechanism).
	if partSum <= fullSum {
		t.Errorf("partial shell mean delay %v should exceed full shell %v",
			partSum/time.Duration(n), fullSum/time.Duration(n))
	}
}
