// Package geo provides the geodesy needed by the satellite simulator:
// conversions between geodetic coordinates and Earth-centered Cartesian
// frames, great-circle distances, slant ranges, elevation angles and
// speed-of-light propagation delays.
//
// A spherical Earth (IUGG mean radius) is used throughout. The paper's
// observables are latencies at millisecond granularity; the sub-0.2 %
// radial error of the spherical model is three orders of magnitude below
// that, and a spherical model keeps orbit propagation closed-form.
package geo

import (
	"fmt"
	"math"
	"time"
)

const (
	// EarthRadiusKm is the IUGG mean Earth radius.
	EarthRadiusKm = 6371.0088
	// EarthMuKm3S2 is the standard gravitational parameter of Earth
	// (km^3/s^2), used for circular orbital periods.
	EarthMuKm3S2 = 398600.4418
	// SpeedOfLightKmS is the vacuum speed of light in km/s. Radio links
	// (satellite legs) propagate at c.
	SpeedOfLightKmS = 299792.458
	// FiberSpeedKmS is the effective propagation speed in optical fiber
	// (~2/3 c), used for terrestrial legs.
	FiberSpeedKmS = 199861.639
	// EarthRotationRadS is the sidereal rotation rate of Earth (rad/s).
	EarthRotationRadS = 7.2921159e-5
)

// LatLon is a geodetic position: degrees latitude (+N), degrees longitude
// (+E) and altitude above the mean sphere in kilometers.
type LatLon struct {
	LatDeg, LonDeg float64
	AltKm          float64
}

// String implements fmt.Stringer.
func (p LatLon) String() string {
	return fmt.Sprintf("(%.4f°, %.4f°, %.1fkm)", p.LatDeg, p.LonDeg, p.AltKm)
}

// ECEF is an Earth-centered, Earth-fixed Cartesian position in kilometers.
// +X pierces the equator at the prime meridian, +Z the north pole.
type ECEF struct {
	X, Y, Z float64
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// ToECEF converts a geodetic position to ECEF coordinates.
func (p LatLon) ToECEF() ECEF {
	r := EarthRadiusKm + p.AltKm
	lat := Radians(p.LatDeg)
	lon := Radians(p.LonDeg)
	clat := math.Cos(lat)
	return ECEF{
		X: r * clat * math.Cos(lon),
		Y: r * clat * math.Sin(lon),
		Z: r * math.Sin(lat),
	}
}

// ToLatLon converts an ECEF position back to geodetic coordinates.
func (e ECEF) ToLatLon() LatLon {
	r := e.Norm()
	if r == 0 {
		return LatLon{}
	}
	return LatLon{
		LatDeg: Degrees(math.Asin(e.Z / r)),
		LonDeg: Degrees(math.Atan2(e.Y, e.X)),
		AltKm:  r - EarthRadiusKm,
	}
}

// Norm returns the Euclidean norm |e| in kilometers.
func (e ECEF) Norm() float64 {
	return math.Sqrt(e.X*e.X + e.Y*e.Y + e.Z*e.Z)
}

// Sub returns e - o.
func (e ECEF) Sub(o ECEF) ECEF { return ECEF{e.X - o.X, e.Y - o.Y, e.Z - o.Z} }

// Dot returns the dot product e·o.
func (e ECEF) Dot(o ECEF) float64 { return e.X*o.X + e.Y*o.Y + e.Z*o.Z }

// Distance returns the straight-line (slant) distance between two ECEF
// points in kilometers.
func (e ECEF) Distance(o ECEF) float64 { return e.Sub(o).Norm() }

// GreatCircleKm returns the great-circle surface distance between two
// geodetic points in kilometers (altitudes ignored).
func GreatCircleKm(a, b LatLon) float64 {
	la, lb := Radians(a.LatDeg), Radians(b.LatDeg)
	dlon := Radians(b.LonDeg - a.LonDeg)
	dlat := lb - la
	h := math.Sin(dlat/2)*math.Sin(dlat/2) +
		math.Cos(la)*math.Cos(lb)*math.Sin(dlon/2)*math.Sin(dlon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// ElevationDeg returns the elevation angle, in degrees, of target as seen
// from observer: 90° is the zenith, 0° the local horizon, negative values
// below the horizon.
func ElevationDeg(observer, target LatLon) float64 {
	return ElevationDegECEF(observer.ToECEF(), target.ToECEF())
}

// ElevationDegECEF is ElevationDeg on ECEF endpoints. Hot loops that
// already hold Cartesian positions (satellite propagation is ECEF-native)
// use this to avoid round-tripping through LatLon, which costs an
// asin/atan2 plus two full geodetic-to-Cartesian conversions per call.
func ElevationDegECEF(observer, target ECEF) float64 {
	return Degrees(math.Asin(SinElevationECEF(observer, target)))
}

// SinElevationECEF returns sin(elevation) of target seen from observer,
// clamped to [-1, 1]. Elevation is monotone in its sine over [-90°, 90°],
// so visibility-mask checks and highest-elevation argmax scans can compare
// sines directly and skip the asin entirely; precompute the mask side once
// with math.Sin(Radians(maskDeg)).
func SinElevationECEF(observer, target ECEF) float64 {
	d := target.Sub(observer)
	dn := d.Norm()
	on := observer.Norm()
	if dn == 0 || on == 0 {
		return 1 // zenith, matching ElevationDeg's degenerate case
	}
	// sin(elev) = (d · ô) / |d|
	sinEl := d.Dot(observer) / (dn * on)
	return math.Max(-1, math.Min(1, sinEl))
}

// RadioDelay returns the one-way propagation delay of a radio (free-space)
// link of the given length.
func RadioDelay(km float64) time.Duration {
	return time.Duration(km / SpeedOfLightKmS * float64(time.Second))
}

// FiberDelay returns the one-way propagation delay of a fiber link of the
// given length.
func FiberDelay(km float64) time.Duration {
	return time.Duration(km / FiberSpeedKmS * float64(time.Second))
}

// FiberRouteDelay estimates the one-way terrestrial delay between two
// points: fiber never follows the great circle, so a path-stretch factor
// (typically 1.5–2.5 for continental routes) is applied to the
// great-circle distance before converting at fiber speed.
func FiberRouteDelay(a, b LatLon, stretch float64) time.Duration {
	if stretch < 1 {
		stretch = 1
	}
	return FiberDelay(GreatCircleKm(a, b) * stretch)
}

// OrbitalPeriod returns the period of a circular orbit at the given
// altitude above the mean sphere.
func OrbitalPeriod(altKm float64) time.Duration {
	a := EarthRadiusKm + altKm // semi-major axis
	sec := 2 * math.Pi * math.Sqrt(a*a*a/EarthMuKm3S2)
	return time.Duration(sec * float64(time.Second))
}

// CoverageCentralAngleRad returns the maximum Earth-central angle between
// an observer at geocentric radius obsRadiusKm and a satellite at
// geocentric radius satRadiusKm for the satellite to sit at or above
// minElevationDeg. This is the exact visibility bound candidate pruning
// rests on: a satellite whose subsatellite point lies further than this
// angle from the observer cannot clear the mask. Returns Pi (no bound)
// when the geometry degenerates (satellite at or below the observer
// shell, or a mask of -90° and below).
func CoverageCentralAngleRad(obsRadiusKm, satRadiusKm, minElevationDeg float64) float64 {
	if satRadiusKm <= obsRadiusKm {
		return math.Pi
	}
	el := Radians(minElevationDeg)
	cosArg := obsRadiusKm * math.Cos(el) / satRadiusKm
	if cosArg > 1 {
		cosArg = 1
	}
	if cosArg < -1 {
		return math.Pi
	}
	lambda := math.Acos(cosArg) - el
	if lambda < 0 {
		return 0
	}
	return lambda
}
