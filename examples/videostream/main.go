// Video streaming headroom: §3.3 notes that Starlink's throughput covers
// Netflix 4K (15 Mbit/s) and Disney+ (25 Mbit/s) recommendations. This
// example emulates a steady 4K-like stream while sampling the remaining
// download capacity with periodic speedtests, and checks rebuffer-free
// delivery.
package main

import (
	"fmt"
	"time"

	"starlinkperf"
	"starlinkperf/internal/stats"
)

func main() {
	tb := starlinkperf.NewTestbed(starlinkperf.DefaultConfig())

	// The messaging workload at 25 msg/s of ~25kB is ~5 Mbit/s; run a
	// heavier stream profile by measuring sustained H3 goodput instead:
	// a 4K stream needs its segment rate to stay above realtime.
	const segmentMB = 8 // 4s segment at ~16 Mbit/s
	const segments = 20
	deadline := 4 * time.Second // realtime budget per segment

	camp := tb.RunH3Campaign(segments, segmentMB<<20, true, 500*time.Millisecond)
	late := 0
	var times []float64
	for _, rec := range camp.Records {
		d := rec.Result.End.Sub(rec.Result.Start)
		times = append(times, d.Seconds())
		if d > deadline {
			late++
		}
	}
	s := stats.Summarize(times)
	fmt.Printf("4K-like stream: %d segments of %dMB (budget %s each)\n", segments, segmentMB, deadline)
	fmt.Printf("  segment fetch: med=%.2fs p95=%.2fs\n", s.P50, s.P95)
	fmt.Printf("  late segments (rebuffer risk): %d/%d\n", late, segments)

	// Headroom: what a speedtest sees on the same link.
	st := tb.RunSpeedtestCampaign(starlinkperf.TechStarlink, 3, time.Minute)
	var down []float64
	for _, r := range st {
		down = append(down, r.DownloadMbps)
	}
	fmt.Printf("  link capacity during the session: ~%.0f Mbit/s (Netflix 4K needs 15, Disney+ 25)\n",
		stats.Median(down))
}
