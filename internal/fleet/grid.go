package fleet

import (
	"math"
	"sort"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/sim"
)

// Cluster is one population center of the terminal grid: terminals are
// scattered uniformly over a disk of RadiusKm around Center, and clusters
// are sampled proportionally to Weight.
type Cluster struct {
	Name     string
	Region   string
	Center   geo.LatLon
	RadiusKm float64
	Weight   float64
}

// WorldClusters is the default population grid: ~30 metro areas spanning
// every latitude band the constellation serves, plus high-north sites
// (Fairbanks, Reykjavik, Tromsø) that sit permanently outside the Gen1
// 53°-inclination coverage — those regions produce the genuine outage
// distributions a global fleet exhibits, not synthetic loss.
func WorldClusters() []Cluster {
	return []Cluster{
		{"new-york", "north-america", geo.LatLon{LatDeg: 40.71, LonDeg: -74.01}, 150, 9},
		{"los-angeles", "north-america", geo.LatLon{LatDeg: 34.05, LonDeg: -118.24}, 150, 7},
		{"chicago", "north-america", geo.LatLon{LatDeg: 41.88, LonDeg: -87.63}, 120, 5},
		{"dallas", "north-america", geo.LatLon{LatDeg: 32.78, LonDeg: -96.80}, 120, 5},
		{"seattle", "north-america", geo.LatLon{LatDeg: 47.61, LonDeg: -122.33}, 100, 4},
		{"mexico-city", "north-america", geo.LatLon{LatDeg: 19.43, LonDeg: -99.13}, 120, 6},
		{"sao-paulo", "south-america", geo.LatLon{LatDeg: -23.55, LonDeg: -46.63}, 150, 8},
		{"buenos-aires", "south-america", geo.LatLon{LatDeg: -34.60, LonDeg: -58.38}, 120, 5},
		{"santiago", "south-america", geo.LatLon{LatDeg: -33.45, LonDeg: -70.67}, 100, 4},
		{"bogota", "south-america", geo.LatLon{LatDeg: 4.71, LonDeg: -74.07}, 100, 4},
		{"london", "europe", geo.LatLon{LatDeg: 51.51, LonDeg: -0.13}, 120, 8},
		{"brussels", "europe", geo.LatLon{LatDeg: 50.85, LonDeg: 4.35}, 100, 5},
		{"madrid", "europe", geo.LatLon{LatDeg: 40.42, LonDeg: -3.70}, 120, 5},
		{"warsaw", "europe", geo.LatLon{LatDeg: 52.23, LonDeg: 21.01}, 100, 4},
		{"kyiv", "europe", geo.LatLon{LatDeg: 50.45, LonDeg: 30.52}, 100, 4},
		{"lagos", "africa", geo.LatLon{LatDeg: 6.52, LonDeg: 3.38}, 120, 7},
		{"nairobi", "africa", geo.LatLon{LatDeg: -1.29, LonDeg: 36.82}, 100, 4},
		{"johannesburg", "africa", geo.LatLon{LatDeg: -26.20, LonDeg: 28.05}, 120, 5},
		{"dubai", "asia", geo.LatLon{LatDeg: 25.20, LonDeg: 55.27}, 100, 4},
		{"delhi", "asia", geo.LatLon{LatDeg: 28.61, LonDeg: 77.21}, 150, 9},
		{"singapore", "asia", geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}, 80, 5},
		{"tokyo", "asia", geo.LatLon{LatDeg: 35.68, LonDeg: 139.69}, 120, 8},
		{"manila", "asia", geo.LatLon{LatDeg: 14.60, LonDeg: 120.98}, 100, 5},
		{"sydney", "oceania", geo.LatLon{LatDeg: -33.87, LonDeg: 151.21}, 120, 6},
		{"auckland", "oceania", geo.LatLon{LatDeg: -36.85, LonDeg: 174.76}, 80, 3},
		{"suva", "oceania", geo.LatLon{LatDeg: -18.14, LonDeg: 178.44}, 60, 1},
		{"fairbanks", "high-north", geo.LatLon{LatDeg: 64.84, LonDeg: -147.72}, 80, 1},
		{"reykjavik", "high-north", geo.LatLon{LatDeg: 64.13, LonDeg: -21.90}, 60, 1},
		{"tromso", "high-north", geo.LatLon{LatDeg: 69.65, LonDeg: 18.96}, 60, 1},
	}
}

// WorldGateways is the default global ground-station set: one or more
// sites near each served region, none in the high-north (which is why
// high-latitude terminals see outages from both missing satellites and
// missing ground paths). MinElevationDeg 0 selects the 10° default.
func WorldGateways() []leo.Gateway {
	return []leo.Gateway{
		{Name: "redmond", Pos: geo.LatLon{LatDeg: 47.67, LonDeg: -122.12}, PoP: "seattle"},
		{Name: "dallas-gw", Pos: geo.LatLon{LatDeg: 32.90, LonDeg: -97.04}, PoP: "dallas"},
		{Name: "ashburn", Pos: geo.LatLon{LatDeg: 39.02, LonDeg: -77.46}, PoP: "washington"},
		{Name: "losangeles-gw", Pos: geo.LatLon{LatDeg: 34.30, LonDeg: -118.50}, PoP: "losangeles"},
		{Name: "chicago-gw", Pos: geo.LatLon{LatDeg: 41.90, LonDeg: -88.00}, PoP: "chicago"},
		{Name: "queretaro", Pos: geo.LatLon{LatDeg: 20.59, LonDeg: -100.39}, PoP: "mexico"},
		{Name: "saopaulo-gw", Pos: geo.LatLon{LatDeg: -23.43, LonDeg: -46.77}, PoP: "saopaulo"},
		{Name: "santiago-gw", Pos: geo.LatLon{LatDeg: -33.38, LonDeg: -70.79}, PoP: "santiago"},
		{Name: "bogota-gw", Pos: geo.LatLon{LatDeg: 4.60, LonDeg: -74.22}, PoP: "bogota"},
		{Name: "dublin", Pos: geo.LatLon{LatDeg: 53.42, LonDeg: -6.30}, PoP: "dublin"},
		{Name: "frankfurt", Pos: geo.LatLon{LatDeg: 50.09, LonDeg: 8.69}, PoP: "frankfurt"},
		{Name: "madrid-gw", Pos: geo.LatLon{LatDeg: 40.49, LonDeg: -3.57}, PoP: "madrid"},
		{Name: "milan", Pos: geo.LatLon{LatDeg: 45.46, LonDeg: 9.19}, PoP: "milan"},
		{Name: "warsaw-gw", Pos: geo.LatLon{LatDeg: 52.17, LonDeg: 20.97}, PoP: "warsaw"},
		{Name: "lagos-gw", Pos: geo.LatLon{LatDeg: 6.58, LonDeg: 3.32}, PoP: "lagos"},
		{Name: "nairobi-gw", Pos: geo.LatLon{LatDeg: -1.32, LonDeg: 36.93}, PoP: "nairobi"},
		{Name: "johannesburg-gw", Pos: geo.LatLon{LatDeg: -26.13, LonDeg: 28.23}, PoP: "johannesburg"},
		{Name: "dubai-gw", Pos: geo.LatLon{LatDeg: 25.07, LonDeg: 55.14}, PoP: "dubai"},
		{Name: "mumbai", Pos: geo.LatLon{LatDeg: 19.09, LonDeg: 72.87}, PoP: "mumbai"},
		{Name: "singapore-gw", Pos: geo.LatLon{LatDeg: 1.35, LonDeg: 103.94}, PoP: "singapore"},
		{Name: "tokyo-gw", Pos: geo.LatLon{LatDeg: 35.76, LonDeg: 139.80}, PoP: "tokyo"},
		{Name: "manila-gw", Pos: geo.LatLon{LatDeg: 14.51, LonDeg: 121.02}, PoP: "manila"},
		{Name: "sydney-gw", Pos: geo.LatLon{LatDeg: -33.94, LonDeg: 150.94}, PoP: "sydney"},
		{Name: "auckland-gw", Pos: geo.LatLon{LatDeg: -36.98, LonDeg: 174.79}, PoP: "auckland"},
	}
}

// TerminalSite returns the deterministic placement of terminal i: the
// cluster index it was sampled into and its position. The placement is a
// pure function of (seed, i, clusters) — the re-derivability the grid
// property suite checks — via a per-terminal seed from
// sim.DeriveSeed(seed, "fleet/terminal", i).
func TerminalSite(seed uint64, i int, clusters []Cluster) (geo.LatLon, int) {
	cum, total := clusterWeights(clusters)
	return placeOne(sim.NewRNG(sim.DeriveSeed(seed, "fleet/terminal", i)), clusters, cum, total)
}

func clusterWeights(clusters []Cluster) ([]float64, float64) {
	cum := make([]float64, len(clusters))
	total := 0.0
	for i, cl := range clusters {
		w := cl.Weight
		if w < 0 {
			w = 0
		}
		total += w
		cum[i] = total
	}
	return cum, total
}

// placeOne draws one terminal's site from rng, freshly seeded for it.
func placeOne(rng *sim.RNG, clusters []Cluster, cum []float64, total float64) (geo.LatLon, int) {
	ci := sort.SearchFloat64s(cum, rng.Float64()*total)
	if ci >= len(clusters) {
		ci = len(clusters) - 1
	}
	cl := clusters[ci]
	// Uniform over the disk: radius ∝ √u, bearing uniform. The longitude
	// offset divides by cos(lat) so east-west kilometers stay kilometers;
	// the clamp keeps near-polar clusters finite.
	d := cl.RadiusKm * math.Sqrt(rng.Float64())
	theta := 2 * math.Pi * rng.Float64()
	cosLat := math.Cos(geo.Radians(cl.Center.LatDeg))
	if cosLat < 0.05 {
		cosLat = 0.05
	}
	lat := cl.Center.LatDeg + geo.Degrees(d*math.Cos(theta)/geo.EarthRadiusKm)
	if lat > 89.9 {
		lat = 89.9
	}
	if lat < -89.9 {
		lat = -89.9
	}
	lon := wrapLon(cl.Center.LonDeg + geo.Degrees(d*math.Sin(theta)/(geo.EarthRadiusKm*cosLat)))
	return geo.LatLon{LatDeg: lat, LonDeg: lon}, ci
}

// placeTerminals places n terminals on wk in assignBlock blocks. Each index
// is a pure function of the seed, so the result is the same for any pool.
func placeTerminals(seed uint64, n int, clusters []Cluster, wk *sim.Workers) (lat, lon []float64, cluster []int32, seeds []uint64) {
	lat = make([]float64, n)
	lon = make([]float64, n)
	cluster = make([]int32, n)
	seeds = make([]uint64, n)
	cum, total := clusterWeights(clusters)
	// One generator per worker, reseeded per terminal: NewRNG's stream.
	rngs := make([]*sim.RNG, wk.Size())
	wk.Run((n+assignBlock-1)/assignBlock, func(w, b int) {
		if rngs[w] == nil {
			rngs[w] = sim.NewRNG(0)
		}
		rng := rngs[w]
		for i := b * assignBlock; i < min(n, (b+1)*assignBlock); i++ {
			seeds[i] = sim.DeriveSeed(seed, "fleet/terminal", i)
			rng.Reseed(seeds[i])
			p, ci := placeOne(rng, clusters, cum, total)
			lat[i], lon[i] = p.LatDeg, p.LonDeg
			cluster[i] = int32(ci)
		}
	})
	return
}

// wrapLon normalizes a longitude to [-180, 180).
func wrapLon(d float64) float64 {
	d = math.Mod(d+180, 360)
	if d < 0 {
		d += 360
	}
	return d - 180
}
