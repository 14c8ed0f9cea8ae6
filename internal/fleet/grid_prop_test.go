package fleet

import (
	"math"
	"testing"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// place runs placeTerminals on a pool of w workers.
func place(seed uint64, n int, cl []Cluster, w int) (lat, lon []float64, cluster []int32, seeds []uint64) {
	wk := sim.NewWorkers(w)
	defer wk.Close()
	return placeTerminals(seed, n, cl, wk)
}

// TestPlacementWorkerInvariant: the population-weighted grid sampling is
// bit-identical for any worker count — each index is a pure function of
// the campaign seed, so parallel placement writes the same bits.
func TestPlacementWorkerInvariant(t *testing.T) {
	cl := WorldClusters()
	for _, seed := range []uint64{3, 99} {
		lat1, lon1, cluster1, seeds1 := place(seed, 5000, cl, 1)
		for _, w := range []int{2, 3, 8} {
			latW, lonW, clusterW, seedsW := place(seed, 5000, cl, w)
			for i := range lat1 {
				if math.Float64bits(lat1[i]) != math.Float64bits(latW[i]) ||
					math.Float64bits(lon1[i]) != math.Float64bits(lonW[i]) ||
					cluster1[i] != clusterW[i] || seeds1[i] != seedsW[i] {
					t.Fatalf("seed %d workers %d: terminal %d diverges from single-worker placement", seed, w, i)
				}
			}
		}
	}
}

// TestPlacementRederivable: any terminal's site is re-derivable from the
// campaign seed and its index alone, without placing the rest of the
// fleet.
func TestPlacementRederivable(t *testing.T) {
	cl := WorldClusters()
	const seed, n = 77, 3000
	lat, lon, cluster, _ := place(seed, n, cl, 4)
	for _, i := range []int{0, 1, 500, 1723, n - 1} {
		p, ci := TerminalSite(seed, i, cl)
		if math.Float64bits(p.LatDeg) != math.Float64bits(lat[i]) ||
			math.Float64bits(p.LonDeg) != math.Float64bits(lon[i]) ||
			int32(ci) != cluster[i] {
			t.Errorf("terminal %d: TerminalSite gives (%v, %v, cluster %d), placement gave (%v, %v, cluster %d)",
				i, p.LatDeg, p.LonDeg, ci, lat[i], lon[i], cluster[i])
		}
	}
}

// TestPlacementMatchesPerTerminalRNG holds the per-worker reseeded generator
// to the form it replaced — a fresh sim.NewRNG from every terminal's derived
// seed, kept here — on every index, field and worker split, including the
// ranges' first and last terminals, where a stale stream would show.
func TestPlacementMatchesPerTerminalRNG(t *testing.T) {
	cl := WorldClusters()
	cum, total := clusterWeights(cl)
	for _, seed := range []uint64{1, 77} {
		for _, w := range []int{1, 3, 8} {
			const n = 4099
			lat, lon, cluster, seeds := place(seed, n, cl, w)
			for i := 0; i < n; i++ {
				ts := sim.DeriveSeed(seed, "fleet/terminal", i)
				p, ci := placeOne(sim.NewRNG(ts), cl, cum, total)
				if math.Float64bits(p.LatDeg) != math.Float64bits(lat[i]) ||
					math.Float64bits(p.LonDeg) != math.Float64bits(lon[i]) ||
					int32(ci) != cluster[i] || ts != seeds[i] {
					t.Fatalf("seed %d workers %d: terminal %d is (%v, %v, cluster %d, seed %x), per-terminal RNG gives (%v, %v, cluster %d, seed %x)",
						seed, w, i, lat[i], lon[i], cluster[i], seeds[i], p.LatDeg, p.LonDeg, ci, ts)
				}
			}
		}
	}
}

// TestPlacementSeedSensitive: different campaign seeds must actually
// move the fleet.
func TestPlacementSeedSensitive(t *testing.T) {
	cl := WorldClusters()
	lat1, lon1, _, _ := place(1, 1000, cl, 1)
	lat2, lon2, _, _ := place(2, 1000, cl, 1)
	moved := 0
	for i := range lat1 {
		if lat1[i] != lat2[i] || lon1[i] != lon2[i] {
			moved++
		}
	}
	if moved < 900 {
		t.Errorf("only %d/1000 terminals moved between seeds", moved)
	}
}

// TestPlacementGeometry: every terminal lands inside (a small tolerance
// of) its cluster disk, with normalized coordinates.
func TestPlacementGeometry(t *testing.T) {
	cl := WorldClusters()
	lat, lon, cluster, _ := place(42, 4000, cl, 2)
	for i := range lat {
		if lat[i] < -89.9 || lat[i] > 89.9 {
			t.Fatalf("terminal %d latitude %v out of range", i, lat[i])
		}
		if lon[i] < -180 || lon[i] >= 180 {
			t.Fatalf("terminal %d longitude %v not normalized", i, lon[i])
		}
		c := cl[cluster[i]]
		d := geo.GreatCircleKm(geo.LatLon{LatDeg: lat[i], LonDeg: lon[i]}, c.Center)
		// The flat-disk scatter stretches slightly when projected onto
		// the sphere at high latitude; 30% headroom covers every
		// cluster in the grid.
		if d > c.RadiusKm*1.3+1 {
			t.Fatalf("terminal %d is %.1f km from %s (radius %.0f km)", i, d, c.Name, c.RadiusKm)
		}
	}
}

// TestPlacementWeighting: cluster sampling tracks the configured
// weights (within loose binomial tolerance).
func TestPlacementWeighting(t *testing.T) {
	cl := WorldClusters()
	_, _, cluster, _ := place(7, 20000, cl, 4)
	counts := make([]int, len(cl))
	for _, ci := range cluster {
		counts[ci]++
	}
	total := 0.0
	for _, c := range cl {
		total += c.Weight
	}
	for ci, c := range cl {
		want := 20000 * c.Weight / total
		got := float64(counts[ci])
		if got < want*0.7-10 || got > want*1.3+10 {
			t.Errorf("%s: %v terminals, want ~%.0f", c.Name, got, want)
		}
	}
}
