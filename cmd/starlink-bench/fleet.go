package main

import (
	"fmt"
	"io"

	"starlinkperf/internal/fleet"
)

// renderFleet prints the per-region distribution table of the fleet
// scenario — the global-coverage story (latency by region, high-latitude
// outage, peak-hour dip) the paper's single-vantage campaigns cannot
// show.
func renderFleet(w io.Writer, res *fleet.Result) {
	fmt.Fprintf(w, "=== starlink-fleet scenario ===\n")
	fmt.Fprintf(w, "%d terminals, %d epochs, %d cells, %d satellites\n\n",
		res.Terminals, res.Epochs, res.Cells, res.Satellites)
	fmt.Fprintf(w, "%-14s %6s %8s %7s %7s %9s %9s %8s %6s\n",
		"region", "terms", "outage%", "p50ms", "p95ms", "handovers", "peak p50", "off p50", "dip%")
	for _, rr := range res.Regions {
		fmt.Fprintf(w, "%-14s %6d %8.2f %7.1f %7.1f %9d %9.1f %8.1f %6.1f\n",
			rr.Region, rr.Terminals, rr.OutagePct, rr.LatencyP50Ms, rr.LatencyP95Ms,
			rr.Handovers, rr.PeakMbpsP50, rr.OffPeakMbpsP50, rr.PeakDipPct)
	}
}

// renderTraffic prints the per-region probe table of the packet-level
// fleet scenario — measured RTT distributions from actual ICMP exchanges
// through the emulated bent-pipe network, as opposed to the analytic
// latency model of the epoch campaign.
func renderTraffic(w io.Writer, res *fleet.TrafficResult) {
	fmt.Fprintf(w, "=== starlink-fleet traffic scenario (independent shards) ===\n")
	fmt.Fprintf(w, "%d terminals, %d partitions, %d probes sent, %d received, %d skipped (outage)\n\n",
		res.Terminals, res.Partitions, res.ProbesSent, res.ProbesRecv, res.ProbesSkipped)
	fmt.Fprintf(w, "%-14s %9s %9s %9s %7s %8s %8s\n",
		"region", "sent", "recv", "skipped", "loss%", "rtt p50", "rtt p95")
	for _, rr := range res.Regions {
		fmt.Fprintf(w, "%-14s %9d %9d %9d %7.2f %8.1f %8.1f\n",
			rr.Region, rr.Sent, rr.Recv, rr.Skipped, rr.LossPct, rr.RTTP50Ms, rr.RTTP95Ms)
	}
}
