package core

import (
	"testing"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/sim"
)

func testAccess() *starlinkAccess {
	con := leo.NewConstellation(leo.NewShell(leo.StarlinkGen1()))
	term := leo.NewTerminal(leo.DefaultTerminalConfig(posLouvain), con, []leo.Gateway{
		{Name: "nl-gw", Pos: posAms, PoP: "AMS"},
		{Name: "de-gw", Pos: posFra, PoP: "FRA"},
	})
	return &starlinkAccess{
		params:   DefaultStarlinkParams(),
		terminal: term,
		seed:     7,
		popPos:   map[string]geo.LatLon{"AMS": posAms, "FRA": posFra},
	}
}

func TestAccessDelayDeterministicAndBounded(t *testing.T) {
	a := testAccess()
	b := testAccess()
	for i := 0; i < 500; i++ {
		at := sim.Time(i) * sim.Time(7*time.Second)
		da, db := a.delay(at), b.delay(at)
		if da != db {
			t.Fatalf("delay not deterministic at %v: %v vs %v", at, da, db)
		}
		// One-way: bent pipe (4-20ms) + PoP leg + 4ms overhead.
		if da < 7*time.Millisecond || da > 40*time.Millisecond {
			t.Fatalf("delay %v out of the physical band at %v", da, at)
		}
	}
}

func TestAccessOutageFractionNearTarget(t *testing.T) {
	a := testAccess()
	down := 0
	const n = 2_000_000
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Time(3*time.Millisecond) // 100 min scan
		if a.down(at) {
			down++
		}
	}
	frac := float64(down) / n
	// Handover outages: 13% of epochs x ~375ms/15s ~ 0.33%, plus rare
	// long outages. Accept a broad band (hash luck over 100 min).
	if frac < 0.0005 || frac > 0.02 {
		t.Errorf("outage time fraction = %.4f%%, want roughly 0.1-2%%", 100*frac)
	}
}

func TestAccessRatesLogNormalBand(t *testing.T) {
	a := testAccess()
	var minD, maxD float64 = 1e18, 0
	for ep := 0; ep < 5000; ep++ {
		at := sim.Time(ep) * sim.Time(15*time.Second)
		d, u := a.rates(at)
		if d <= 0 || u <= 0 {
			t.Fatalf("non-positive rate at %v", at)
		}
		if u > d {
			t.Fatalf("uplink faster than downlink at %v", at)
		}
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	// Spread must exist (log-normal) but stay physical.
	if maxD/minD < 1.5 {
		t.Errorf("rate spread too small: %v..%v", minD, maxD)
	}
	if maxD > 800e6 || minD < 20e6 {
		t.Errorf("rates outside the plausible Starlink band: %v..%v", minD, maxD)
	}
}

func TestEpochRandDeterminism(t *testing.T) {
	a1, b1 := epochRand(1, 42, 7)
	a2, b2 := epochRand(1, 42, 7)
	if a1 != a2 || b1 != b2 {
		t.Fatal("epochRand not deterministic")
	}
	a3, _ := epochRand(1, 43, 7)
	if a1 == a3 {
		t.Fatal("epochRand does not vary with epoch")
	}
	if a1 < 0 || a1 >= 1 || b1 < 0 || b1 >= 1 {
		t.Fatalf("epochRand out of [0,1): %v %v", a1, b1)
	}
}

// TestEpochRandPinned: the access link's per-epoch draws are bit-for-bit
// what they were before splitmix64 moved to sim.SplitMix64 (values
// captured from the package's own copy), so outage and rate schedules
// do not move.
func TestEpochRandPinned(t *testing.T) {
	for _, c := range []struct {
		seed, epoch, salt uint64
		a, b              float64
	}{
		{0x0, 0, 0x0, 0.8833108082136426, 0.6524484863740322},
		{0x1, 42, 0x7, 0.008218912220709362, 0.784170463408538},
		{0x1, 43, 0x7, 0.1612718852836187, 0.9206585281560038},
		{0xdeadbeefcafef00d, 1234, 0x48, 0.7227502440112322, 0.03329567168640979},
		{0xffffffffffffffff, 99999, 0x10, 0.6069822650803368, 0.7799914245597818},
	} {
		if a, b := epochRand(c.seed, c.epoch, c.salt); a != c.a || b != c.b {
			t.Errorf("epochRand(%#x, %d, %#x) = %v, %v, want %v, %v", c.seed, c.epoch, c.salt, a, b, c.a, c.b)
		}
	}
}
