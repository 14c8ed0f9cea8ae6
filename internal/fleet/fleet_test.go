package fleet

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/sim"
)

// TestRunGlobalSmoke runs a reduced global campaign on the real Gen1
// shell and checks that the per-region physics comes out right: served
// regions see ~20-100 ms median RTTs, the high-north (beyond the 53°
// shell's coverage) is in permanent outage, and peak-hour medians never
// beat off-peak.
func TestRunGlobalSmoke(t *testing.T) {
	cfg := Config{Seed: 42, Terminals: 3000, Horizon: 30 * time.Minute, Workers: 2}
	res := Run(cfg)
	if res.Terminals != 3000 || res.Epochs != 120 {
		t.Fatalf("unexpected shape: %+v", res)
	}
	if res.Cells <= 0 || res.Satellites != 72*22 {
		t.Fatalf("unexpected index shape: cells=%d sats=%d", res.Cells, res.Satellites)
	}
	total := 0
	for _, rr := range res.Regions {
		total += rr.Terminals
		switch rr.Region {
		case "high-north":
			if rr.OutagePct != 100 {
				t.Errorf("high-north outage = %.2f%%, want 100%% (outside Gen1 coverage)", rr.OutagePct)
			}
			if rr.Samples != 0 {
				t.Errorf("high-north has %d served samples, want 0", rr.Samples)
			}
		case "europe", "north-america", "asia":
			if rr.Samples == 0 {
				t.Fatalf("%s: no served samples", rr.Region)
			}
			if rr.OutagePct > 10 {
				t.Errorf("%s outage = %.2f%%, want <10%%", rr.Region, rr.OutagePct)
			}
			if rr.LatencyP50Ms < 5 || rr.LatencyP50Ms > 100 {
				t.Errorf("%s median RTT = %.1f ms, want 5-100 ms", rr.Region, rr.LatencyP50Ms)
			}
			if rr.LatencyP95Ms < rr.LatencyP50Ms {
				t.Errorf("%s p95 RTT %.1f < p50 %.1f", rr.Region, rr.LatencyP95Ms, rr.LatencyP50Ms)
			}
			if rr.Handovers == 0 {
				t.Errorf("%s: no handovers over 30 simulated minutes", rr.Region)
			}
		}
		// Compare peak and off-peak only when the 30-minute slice of
		// local time produced samples in both windows.
		if rr.PeakMbpsP50 > 0 && rr.OffPeakMbpsP50 > 0 && rr.PeakMbpsP50 > rr.OffPeakMbpsP50 {
			t.Errorf("%s: peak median %.1f Mbps beats off-peak %.1f", rr.Region, rr.PeakMbpsP50, rr.OffPeakMbpsP50)
		}
	}
	if total != cfg.Terminals {
		t.Errorf("region terminal counts sum to %d, want %d", total, cfg.Terminals)
	}
}

// TestBeamContentionDip: with a finite beam, a dense single-cluster
// fleet must show a peak-hour throughput dip over a full simulated day;
// the identical fleet under an effectively infinite beam pins every
// share at the per-terminal cap and shows none. That isolates the dip to
// the contention model rather than geometry.
func TestBeamContentionDip(t *testing.T) {
	dense := Config{
		Seed:      5,
		Terminals: 600,
		Horizon:   24 * time.Hour,
		Epoch:     5 * time.Minute, // coarse epochs keep the day cheap
		Clusters: []Cluster{
			{"brussels", "europe", geo.LatLon{LatDeg: 50.85, LonDeg: 4.35}, 60, 1},
		},
	}
	res := Run(dense)
	eu := res.Regions[0]
	if eu.Region != "europe" || eu.Samples == 0 {
		t.Fatalf("unexpected region result: %+v", eu)
	}
	if eu.PeakDipPct <= 5 {
		t.Errorf("contended peak dip = %.1f%% (peak p50 %.1f, off-peak p50 %.1f), want >5%%",
			eu.PeakDipPct, eu.PeakMbpsP50, eu.OffPeakMbpsP50)
	}
	wide := dense
	wide.BeamMbps = 1e9
	wres := Run(wide)
	weu := wres.Regions[0]
	if weu.OffPeakMbpsP50 < 249 || weu.PeakMbpsP50 < 249 {
		t.Errorf("uncontended medians %.1f/%.1f Mbps, want the 250 cap", weu.PeakMbpsP50, weu.OffPeakMbpsP50)
	}
	if weu.PeakDipPct > 1 {
		t.Errorf("uncontended peak dip = %.1f%%, want ~0", weu.PeakDipPct)
	}
}

// TestSeedSensitivity: different campaign seeds must move the placement
// and therefore the results.
func TestSeedSensitivity(t *testing.T) {
	cfg := Config{Terminals: 1000, Horizon: 5 * time.Minute}
	cfg.Seed = 1
	a := Run(cfg)
	cfg.Seed = 2
	b := Run(cfg)
	same := true
	for i := range a.Regions {
		if a.Regions[i] != b.Regions[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical per-region results")
	}
}

// TestFleetSortedByCell: the SoA order is (cell, placement index) and
// cellStart is a consistent CSR over it. The fleet keeps neither latitude
// nor placement index, so the test re-derives both from placeTerminals and
// sorts the indices its own way, with a comparator.
func TestFleetSortedByCell(t *testing.T) {
	cfg := Config{Seed: 3, Terminals: 2000}.withDefaults()
	f := New(cfg)
	defer f.Close()
	wk := sim.NewWorkers(1)
	defer wk.Close()
	lat, lon, _, seeds := placeTerminals(cfg.Seed, cfg.Terminals, cfg.Clusters, wk)
	cell := func(i int) int32 { return f.grid.cellOf(lat[i], lon[i]) }
	order := make([]int, cfg.Terminals)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(cell(a), cell(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for t2, i := range order {
		if f.lon[t2] != lon[i] || f.seed[t2] != seeds[i] {
			t.Fatalf("terminal %d: holds lon %v seed %#x, want placement %d's %v %#x", t2, f.lon[t2], f.seed[t2], i, lon[i], seeds[i])
		}
		if c := cell(i); f.cellStart[c] > int32(t2) || f.cellStart[c+1] <= int32(t2) {
			t.Fatalf("terminal %d (cell %d) outside its cellStart run [%d, %d)", t2, c, f.cellStart[c], f.cellStart[c+1])
		}
	}
}

// TestCellOfEdges pins the cell mapping at the poles and the
// antimeridian: ±90° clamp into the polar rows, +180° and -180° are the
// same cell, and every cell id is in range.
func TestCellOfEdges(t *testing.T) {
	g := newCellGrid()
	if g.nCells <= 0 {
		t.Fatal("empty grid")
	}
	if a, b := g.cellOf(0, 180), g.cellOf(0, -180); a != b {
		t.Errorf("antimeridian split: cell(0,180)=%d cell(0,-180)=%d", a, b)
	}
	top := g.rows[len(g.rows)-1]
	if c := g.cellOf(90, 45); c < top.start || c >= top.start+top.nLon {
		t.Errorf("north pole cell %d outside top row", c)
	}
	if c := g.cellOf(-90, -45); c < 0 || c >= g.rows[0].nLon {
		t.Errorf("south pole cell %d outside bottom row", c)
	}
	for _, p := range []struct{ lat, lon float64 }{
		{91, 0}, {-91, 0}, {45, 360}, {45, -360}, {0, 539.99}, {-89.99, 179.99},
	} {
		c := g.cellOf(p.lat, p.lon)
		if c < 0 || int(c) >= g.nCells {
			t.Errorf("cellOf(%v,%v) = %d out of range", p.lat, p.lon, c)
		}
	}
	// Wrapped longitudes map consistently.
	if a, b := g.cellOf(10, 370), g.cellOf(10, 10); a != b {
		t.Errorf("lon wrap: cell(10,370)=%d != cell(10,10)=%d", a, b)
	}
}

// TestActiveProbRange: activeProbMin and activeProbMax bracket activeProb at
// every hour and are attained at the trough and the peak — what lets the
// epoch decide a draw outside them without the hour.
func TestActiveProbRange(t *testing.T) {
	if activeProb(8) != activeProbMin || activeProb(20) != activeProbMax {
		t.Fatalf("activeProb(8) = %v, activeProb(20) = %v; range [%v, %v]", activeProb(8), activeProb(20), activeProbMin, activeProbMax)
	}
	for h := 0.0; h < 24; h += 1.0 / 512 {
		if p := activeProb(h); p < activeProbMin || p > activeProbMax {
			t.Fatalf("activeProb(%v) = %v outside [%v, %v]", h, p, activeProbMin, activeProbMax)
		}
	}
}

// checkActivityCoin holds activeAt to draw < activeProb(h) for draws at
// activeProb(h) and its four float neighbours either side, where a
// bracket that misses activeProb(h) by one ulp decides wrongly.
func checkActivityCoin(t *testing.T, h float64) {
	t.Helper()
	p := activeProb(h)
	d := p
	for range 4 {
		d = math.Nextafter(d, math.Inf(-1))
	}
	for range 9 {
		if got, want := activeAt(h, d), d < p; got != want {
			t.Fatalf("activeAt(%v, %v) = %v; activeProb(%v) = %v says %v", h, d, got, h, p, want)
		}
		d = math.Nextafter(d, math.Inf(1))
	}
}

// TestActivityBracketMatchesCosine: the bracket table settles the coin
// exactly as the cosine does — at every bin edge and 4 ulps either side,
// around 08:00 and 20:00 (the bins whose bracket is the formula's range),
// at h = 0 and h = 24 (which localHour can return), and at a million
// random hours. Every bracket also holds activeProb 4 ulps beyond its
// bin's edges, so an hour whose index rounds into the bin from a
// neighbour is bracketed too: the room the pad buys.
func TestActivityBracketMatchesCosine(t *testing.T) {
	for i, b := range activeBracket {
		h0, h1 := float64(i)*(24.0/activeBins), float64(i+1)*(24.0/activeBins)
		for range 4 {
			h0, h1 = math.Nextafter(h0, math.Inf(-1)), math.Nextafter(h1, math.Inf(1))
		}
		for _, h := range []float64{h0, h1} {
			if p := activeProb(h); p < b.lo || p > b.hi {
				t.Fatalf("bin %d: activeProb(%v) = %v outside its bracket [%v, %v]", i, h, p, b.lo, b.hi)
			}
		}
	}
	around := func(h float64, n int) {
		checkActivityCoin(t, h)
		lo, hi := h, h
		for range n {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			if lo >= 0 {
				checkActivityCoin(t, lo)
			}
			if hi <= 24 {
				checkActivityCoin(t, hi)
			}
		}
	}
	for i := 0; i <= activeBins; i++ {
		around(float64(i)*(24.0/activeBins), 4)
	}
	around(8, 64)
	around(20, 64)
	rng := rand.New(rand.NewPCG(48, 1))
	for range 1_000_000 {
		checkActivityCoin(t, 24*rng.Float64())
	}
}

// TestActiveDrawPinned: the activity coin is bit-for-bit the inline
// splitmix64 it was before it moved onto sim.SplitMix64 (values captured
// from that inline copy), so every fleet campaign draws the same terminals.
func TestActiveDrawPinned(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		epoch int64
		want  float64
	}{
		{0x0, 0, 0.8833108082136426},
		{0x1, 0, 0.5665615751722809},
		{0x2a, 7, 0.8006318767135033},
		{0xdeadbeefcafef00d, 1234, 0.8059373472284959},
		{0xffffffffffffffff, 99999, 0.11379565773508638},
	} {
		if got := activeDraw(c.seed, c.epoch); got != c.want {
			t.Errorf("activeDraw(%#x, %d) = %v, want %v", c.seed, c.epoch, got, c.want)
		}
	}
}

// TestNewLimits: New refuses, naming the limit, a config whose values
// outgrow a narrowed terminal field, before it places a terminal.
func TestNewLimits(t *testing.T) {
	tooMany := func(n int, f func(i int) Cluster) []Cluster {
		cl := make([]Cluster, n)
		for i := range cl {
			cl[i] = f(i)
		}
		return cl
	}
	regions := tooMany(257, func(i int) Cluster {
		return Cluster{fmt.Sprint("c", i), fmt.Sprint("region-", i), geo.LatLon{LatDeg: 40, LonDeg: float64(i % 360)}, 10, 1}
	})
	gateways := make([]leo.Gateway, 32769)
	for i := range gateways {
		gateways[i] = leo.Gateway{Name: fmt.Sprint("gw", i), Pos: geo.LatLon{LatDeg: 40, LonDeg: float64(i % 360)}}
	}
	high := leo.StarlinkGen1()
	high.AltKm = 400000
	for _, tc := range []struct {
		name, want string
		cfg        Config
	}{
		{"regions", "257 regions exceed the 256 a uint8 region index holds", Config{Terminals: 10, Clusters: regions}},
		{"gateways", "32769 gateways exceed the 32768 an int16 gateway index holds", Config{Terminals: 10, Gateways: gateways}},
		{"delay", "past the 2.147483647s an int32 delay holds", Config{Terminals: 10, Shells: []leo.ShellConfig{high}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("New panicked with %q, want it to name %q", msg, tc.want)
				}
			}()
			New(tc.cfg).Close()
		})
	}
	// At each limit New builds.
	regions, gateways = regions[:256], gateways[:32768]
	New(Config{Terminals: 10, Clusters: regions, Gateways: gateways[:24]}).Close()
	checkLimits(Config{Gateways: gateways, Shells: []leo.ShellConfig{leo.StarlinkGen1()}}, 256)
}
