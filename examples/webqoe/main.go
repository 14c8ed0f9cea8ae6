// Web QoE comparison: the paper's headline user-facing result is that
// Starlink browsing is 75-80% faster than GEO SatCom and close to wired.
// This example visits the same sites from all three vantage points and
// prints the side-by-side QoE metrics.
package main

import (
	"fmt"
	"time"

	"starlinkperf"
	"starlinkperf/internal/stats"
)

func main() {
	tb := starlinkperf.NewTestbed(starlinkperf.DefaultConfig())
	const visits = 25

	techs := []struct {
		name string
		tech starlinkperf.Tech
	}{
		{"wired", starlinkperf.TechWired},
		{"starlink", starlinkperf.TechStarlink},
		{"satcom", starlinkperf.TechSatCom},
	}
	medians := map[string]float64{}
	fmt.Printf("%-10s %12s %14s %14s\n", "access", "onLoad med", "SpeedIndex med", "conn setup")
	for _, t := range techs {
		results := tb.RunWebCampaign(t.tech, visits, 2*time.Second)
		var ol, si []float64
		for _, v := range results {
			if v.Failed {
				continue
			}
			ol = append(ol, v.OnLoad.Seconds())
			si = append(si, v.SpeedIndex.Seconds())
		}
		setup := starlinkperf.ConnSetupStats(results)
		medians[t.name] = stats.Median(ol)
		fmt.Printf("%-10s %11.2fs %13.2fs %12.0fms\n",
			t.name, stats.Median(ol), stats.Median(si), setup.Mean)
	}
	speedup := 1 - medians["starlink"]/medians["satcom"]
	fmt.Printf("\nStarlink loads pages %.0f%% faster than GEO SatCom (paper: 75-80%%)\n", 100*speedup)
}
