package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestECEFRoundTrip(t *testing.T) {
	f := func(latQ, lonQ int16, altQ uint8) bool {
		p := LatLon{
			LatDeg: float64(latQ) / 400,  // ~[-81, 81]
			LonDeg: float64(lonQ) / 200,  // ~[-163, 163]
			AltKm:  float64(altQ) * 10.0, // [0, 2550]
		}
		q := p.ToECEF().ToLatLon()
		return math.Abs(q.LatDeg-p.LatDeg) < 1e-9 &&
			math.Abs(q.LonDeg-p.LonDeg) < 1e-9 &&
			math.Abs(q.AltKm-p.AltKm) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECEFKnownPoints(t *testing.T) {
	// Equator / prime meridian should sit on +X.
	e := (LatLon{0, 0, 0}).ToECEF()
	approx(t, e.X, EarthRadiusKm, 1e-6, "equator X")
	approx(t, e.Y, 0, 1e-6, "equator Y")
	approx(t, e.Z, 0, 1e-6, "equator Z")
	// North pole on +Z.
	n := (LatLon{90, 0, 0}).ToECEF()
	approx(t, n.Z, EarthRadiusKm, 1e-6, "pole Z")
	approx(t, math.Hypot(n.X, n.Y), 0, 1e-6, "pole XY")
}

func TestGreatCircleKnownDistances(t *testing.T) {
	brussels := LatLon{50.85, 4.35, 0}
	newYork := LatLon{40.71, -74.01, 0}
	singapore := LatLon{1.35, 103.82, 0}
	// Published great-circle distances: BRU-NYC ~5 890 km, BRU-SIN ~10 540 km.
	approx(t, GreatCircleKm(brussels, newYork), 5890, 80, "BRU-NYC")
	approx(t, GreatCircleKm(brussels, singapore), 10540, 120, "BRU-SIN")
	// Symmetry and identity.
	approx(t, GreatCircleKm(newYork, brussels), GreatCircleKm(brussels, newYork), 1e-9, "symmetry")
	approx(t, GreatCircleKm(brussels, brussels), 0, 1e-9, "identity")
}

func TestGreatCircleAntipodal(t *testing.T) {
	a := LatLon{0, 0, 0}
	b := LatLon{0, 180, 0}
	approx(t, GreatCircleKm(a, b), math.Pi*EarthRadiusKm, 1, "antipodal")
}

func TestSlantRangeZenith(t *testing.T) {
	ground := LatLon{50, 4, 0}
	sat := LatLon{50, 4, 550}
	approx(t, ground.ToECEF().Distance(sat.ToECEF()), 550, 1e-6, "zenith slant range")
}

func TestElevationZenithAndHorizon(t *testing.T) {
	ground := LatLon{50, 4, 0}
	overhead := LatLon{50, 4, 550}
	approx(t, ElevationDeg(ground, overhead), 90, 1e-6, "zenith elevation")

	// A satellite far around the curve of the Earth is below the horizon.
	far := LatLon{50, 120, 550}
	if el := ElevationDeg(ground, far); el > 0 {
		t.Errorf("far satellite elevation = %v, want below horizon", el)
	}
}

func TestElevationDecreasesWithGroundDistance(t *testing.T) {
	ground := LatLon{0, 0, 0}
	prev := 91.0
	for lon := 0.0; lon < 25; lon += 2.5 {
		el := ElevationDeg(ground, LatLon{0, lon, 550})
		if el >= prev {
			t.Fatalf("elevation not monotonically decreasing at lon=%v: %v >= %v", lon, el, prev)
		}
		prev = el
	}
}

func TestPropagationDelays(t *testing.T) {
	// Light crosses ~300 km in ~1 ms.
	approx(t, RadioDelay(299.792458).Seconds()*1000, 1.0, 1e-9, "radio 1ms")
	// GEO one-way ~119.4 ms at 35 786 km.
	geoDelay := RadioDelay(35786)
	if geoDelay < 119*time.Millisecond || geoDelay > 120*time.Millisecond {
		t.Errorf("GEO one-way = %v, want ~119.4ms", geoDelay)
	}
	// Fiber is slower than radio for the same distance.
	if FiberDelay(1000) <= RadioDelay(1000) {
		t.Error("fiber should be slower than radio")
	}
}

func TestFiberRouteDelayStretch(t *testing.T) {
	a := LatLon{50.85, 4.35, 0}
	b := LatLon{52.37, 4.90, 0}
	d1 := FiberRouteDelay(a, b, 1.0)
	d2 := FiberRouteDelay(a, b, 2.0)
	if math.Abs(float64(d2)-2*float64(d1)) > float64(time.Microsecond) {
		t.Errorf("stretch 2 should double delay: %v vs %v", d1, d2)
	}
	// Stretch below 1 clamps to 1.
	if FiberRouteDelay(a, b, 0.5) != d1 {
		t.Error("stretch < 1 should clamp to 1")
	}
}

func TestOrbitalPeriodLEO(t *testing.T) {
	// ~95.6 minutes at 550 km (well-known Starlink figure).
	p := OrbitalPeriod(550)
	if p < 95*time.Minute || p > 97*time.Minute {
		t.Errorf("period at 550km = %v, want ~95.6min", p)
	}
	// GEO: ~23.93 h at 35 786 km.
	g := OrbitalPeriod(35786)
	if g < 23*time.Hour+50*time.Minute || g > 24*time.Hour {
		t.Errorf("period at GEO = %v, want ~23.93h", g)
	}
}

func TestCoverageRadius(t *testing.T) {
	// At 550 km with a 25° mask the footprint radius, the coverage
	// central angle along the surface, is ~940 km.
	radius := func(maskDeg float64) float64 {
		return EarthRadiusKm * CoverageCentralAngleRad(EarthRadiusKm, EarthRadiusKm+550, maskDeg)
	}
	r := radius(25)
	approx(t, r, 940, 50, "coverage radius 550km/25°")
	// Lower masks see farther.
	if radius(40) >= r {
		t.Error("higher elevation mask should shrink the footprint")
	}
}

func TestSlantRangeVsGreatCircle(t *testing.T) {
	// Chord is always <= arc for surface points.
	f := func(latQ, lonQ int16) bool {
		a := LatLon{float64(latQ) / 400, float64(lonQ) / 200, 0}
		b := LatLon{20, 30, 0}
		return a.ToECEF().Distance(b.ToECEF()) <= GreatCircleKm(a, b)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestElevationECEFMatchesLatLon is the property the fast path depends
// on: for any observer/target pair, ElevationDegECEF on the converted
// endpoints agrees with the historical LatLon formulation to 1e-9°.
func TestElevationECEFMatchesLatLon(t *testing.T) {
	f := func(laQ, loQ, lbQ, lcQ int16, altQ uint8) bool {
		obs := LatLon{float64(laQ) / 400, float64(loQ) / 200, 0}
		sat := LatLon{float64(lbQ) / 400, float64(lcQ) / 200, 300 + float64(altQ)*10}
		viaLatLon := ElevationDeg(obs, sat)
		viaECEF := ElevationDegECEF(obs.ToECEF(), sat.ToECEF())
		return math.Abs(viaLatLon-viaECEF) <= 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSinElevationConsistent: sin(ElevationDegECEF) == SinElevationECEF,
// so mask checks done in sine space decide exactly as degree checks.
func TestSinElevationConsistent(t *testing.T) {
	f := func(laQ, loQ, lbQ, lcQ int16) bool {
		obs := LatLon{float64(laQ) / 400, float64(loQ) / 200, 0}.ToECEF()
		sat := LatLon{float64(lbQ) / 400, float64(lcQ) / 200, 550}.ToECEF()
		s := SinElevationECEF(obs, sat)
		if s < -1 || s > 1 {
			return false
		}
		return math.Abs(math.Sin(Radians(ElevationDegECEF(obs, sat)))-s) <= 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Degenerate inputs report zenith, as ElevationDeg always has.
	if s := SinElevationECEF(ECEF{}, ECEF{1, 0, 0}); s != 1 {
		t.Errorf("zero observer: sin = %v, want 1", s)
	}
	if s := SinElevationECEF(ECEF{1, 0, 0}, ECEF{1, 0, 0}); s != 1 {
		t.Errorf("coincident points: sin = %v, want 1", s)
	}
}

// TestCoverageCentralAngleBound checks the pruning bound is exact: a
// target placed on the Earth-central angle returned for a mask sits at
// that elevation, inside it sits above, outside below.
func TestCoverageCentralAngleBound(t *testing.T) {
	const altKm = 550.0
	satR := EarthRadiusKm + altKm
	obs := LatLon{0, 0, 0}
	for _, maskDeg := range []float64{0, 10, 25, 40, 60} {
		lam := CoverageCentralAngleRad(EarthRadiusKm, satR, maskDeg)
		atBound := LatLon{0, Degrees(lam), altKm}
		approx(t, ElevationDeg(obs, atBound), maskDeg, 1e-6, "elevation at coverage bound")
		inside := LatLon{0, Degrees(lam * 0.9), altKm}
		if ElevationDeg(obs, inside) <= maskDeg {
			t.Errorf("mask %v°: target inside the bound not above the mask", maskDeg)
		}
		outside := LatLon{0, Degrees(lam * 1.1), altKm}
		if ElevationDeg(obs, outside) >= maskDeg {
			t.Errorf("mask %v°: target outside the bound not below the mask", maskDeg)
		}
	}
	// Degenerate geometries disable pruning rather than inventing a bound.
	if got := CoverageCentralAngleRad(EarthRadiusKm, EarthRadiusKm, 25); got != math.Pi {
		t.Errorf("satellite at observer shell: %v, want Pi", got)
	}
	if got := CoverageCentralAngleRad(EarthRadiusKm, satR, 90); got != 0 {
		t.Errorf("90° mask: %v, want 0 (zenith only)", got)
	}
}

func TestRadiansDegreesRoundTrip(t *testing.T) {
	f := func(x int32) bool {
		v := float64(x) / 1e4
		return math.Abs(Degrees(Radians(v))-v) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
