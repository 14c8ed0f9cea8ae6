package leo

import (
	"testing"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// TestISLMemoEquivalence holds the memoized PathDelay bit-identical to
// the plain computation across distinct instants (more than the ring holds,
// so eviction paths run), repeated queries (memo hits), and interleaved
// endpoint pairs.
func TestISLMemoEquivalence(t *testing.T) {
	memoCon := NewConstellation(NewShell(StarlinkGen1()))
	refCon := NewConstellation(NewShell(StarlinkGen1()))
	memoR := NewISLRouter(memoCon, 0)
	refR := NewISLRouter(refCon, 0)

	pairs := []struct{ src, dst geo.LatLon }{
		{geo.LatLon{LatDeg: 51.5, LonDeg: -0.1}, geo.LatLon{LatDeg: 40.7, LonDeg: -74.0}},
		{geo.LatLon{LatDeg: 50.8, LonDeg: 4.4}, geo.LatLon{LatDeg: 1.35, LonDeg: 103.8}},
		{geo.LatLon{LatDeg: -33.9, LonDeg: 151.2}, geo.LatLon{LatDeg: 35.7, LonDeg: 139.7}},
	}
	check := func(at sim.Time, src, dst geo.LatLon, mask float64) {
		t.Helper()
		gd, gh, gok := memoR.PathDelay(at, src, dst, mask)
		wd, wh, wok := refR.searchPathDelay(at, src, dst, mask)
		if gd != wd || gh != wh || gok != wok {
			t.Fatalf("at=%v src=%v dst=%v mask=%v: memo (%v,%d,%v) != reference (%v,%d,%v)",
				at, src, dst, mask, gd, gh, gok, wd, wh, wok)
		}
	}

	// 20 distinct instants x 3 pairs: every query misses or evicts.
	for i := 0; i < 20; i++ {
		at := sim.Time(int64(i) * int64(15*time.Second))
		for _, p := range pairs {
			check(at, p.src, p.dst, 25)
		}
	}
	// Repeats of recent instants: memo hits must return the same values.
	for i := 19; i >= 17; i-- {
		at := sim.Time(int64(i) * int64(15*time.Second))
		for _, p := range pairs {
			check(at, p.src, p.dst, 25)
			check(at, p.src, p.dst, 25)
		}
	}
	// Same tuple, different mask: a distinct key, never a stale hit.
	check(sim.Time(int64(19*15*time.Second)), pairs[0].src, pairs[0].dst, 40)
}

// TestISLMemoInvalidatedByMembership reproduces mid-campaign fleet
// growth: toggling satellites bumps the shell generation, so a cached
// route from the old membership can never be served again.
func TestISLMemoInvalidatedByMembership(t *testing.T) {
	memoCon := NewConstellation(NewShell(StarlinkGen1()))
	refCon := NewConstellation(NewShell(StarlinkGen1()))
	memoR := NewISLRouter(memoCon, 0)
	refR := NewISLRouter(refCon, 0)
	memoShell, refShell := memoCon.Shells()[0], refCon.Shells()[0]

	src := geo.LatLon{LatDeg: 50.8, LonDeg: 4.4}
	dst := geo.LatLon{LatDeg: 40.7, LonDeg: -74.0}
	at := sim.Time(0)

	d0, h0, ok0 := memoR.PathDelay(at, src, dst, 25)
	if !ok0 {
		t.Fatal("no route before membership change")
	}
	// Disable whole planes until the reference route actually changes, so
	// a stale memo hit would be observable.
	changed := false
	for p := 0; p < memoShell.Config().Planes && !changed; p++ {
		for i := 0; i < memoShell.Config().SatsPerPlane; i++ {
			memoShell.SetEnabled(p, i, false)
			refShell.SetEnabled(p, i, false)
		}
		wd, wh, wok := refR.searchPathDelay(at, src, dst, 25)
		changed = wd != d0 || wh != h0 || wok != ok0
		gd, gh, gok := memoR.PathDelay(at, src, dst, 25)
		if gd != wd || gh != wh || gok != wok {
			t.Fatalf("after disabling plane %d: memo (%v,%d,%v) != reference (%v,%d,%v) — stale cache",
				p, gd, gh, gok, wd, wh, wok)
		}
	}
	if !changed {
		t.Fatal("test never perturbed the route; invalidation unexercised")
	}
	if memoShell.Gen() == 0 {
		t.Fatal("membership toggles did not bump the generation")
	}
}
