package fleet

import (
	"testing"
	"time"

	"starlinkperf/internal/geo"
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
// cellStart is a consistent CSR over it.
func TestFleetSortedByCell(t *testing.T) {
	f := New(Config{Seed: 3, Terminals: 2000})
	for t2 := 1; t2 < len(f.cell); t2++ {
		if f.cell[t2] < f.cell[t2-1] {
			t.Fatalf("terminal %d: cell %d after cell %d", t2, f.cell[t2], f.cell[t2-1])
		}
		if f.cell[t2] == f.cell[t2-1] && f.orig[t2] <= f.orig[t2-1] {
			t.Fatalf("terminal %d: placement order not preserved within cell", t2)
		}
	}
	for c := 0; c < f.grid.nCells; c++ {
		for i := f.cellStart[c]; i < f.cellStart[c+1]; i++ {
			if f.cell[i] != int32(c) {
				t.Fatalf("cellStart CSR inconsistent at cell %d", c)
			}
		}
	}
}

// TestCellOfEdges pins the cell mapping at the poles and the
// antimeridian: ±90° clamp into the polar rows, +180° and -180° are the
// same cell, and every cell id is in range.
func TestCellOfEdges(t *testing.T) {
	g := newCellGrid(2.5)
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
