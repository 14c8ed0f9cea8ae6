package core

import (
	"fmt"
	"io"

	"starlinkperf/internal/fleet"
	"starlinkperf/internal/obs"
)

// RunFleetScenario runs the planet-scale terminal-fleet campaign under
// the shared Options semantics: opts.Seed overrides the config seed,
// opts.Workers resolves the reassignment parallelism (zero means
// GOMAXPROCS), and when opts.Obs is set the fleet's per-region metrics
// and epoch trace register under the "fleet/0000" source so the
// collector's sorted exports stay invariant to worker count. Worker
// count never changes the result — the fleet equivalence suite holds
// the scenario to bit-identical outputs for any parallelism.
func RunFleetScenario(cfg fleet.Config, opts Options) *fleet.Result {
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if cfg.Workers <= 0 {
		cfg.Workers = opts.WorkerCount()
	}
	if opts.Obs != nil {
		sink := obs.NewSink(0)
		cfg.Obs = sink
		opts.Obs.Add("fleet/0000", sink)
	}
	return fleet.Run(cfg)
}

// RunFleetTraffic runs the packet-level fleet scenario — every terminal
// probing its serving gateway through the emulated bent-pipe network —
// under the shared Options semantics. The fleet is partitioned spatially
// into self-contained shards that opts.ScenarioWorkers goroutines advance
// from one epoch barrier to the next, with outputs bit-identical for any
// worker count (TestTrafficWorkerInvariance and
// TestFleetTrafficScenarioWorkerInvariance enforce it). opts.Obs receives
// one source per partition plus the embedded fleet campaign's sink, all
// named through obs.ShardSource so exports stay worker-invariant.
func RunFleetTraffic(cfg fleet.TrafficConfig, opts Options) *fleet.TrafficResult {
	if opts.Seed != 0 {
		cfg.Fleet.Seed = opts.Seed
	}
	if cfg.Fleet.Workers <= 0 {
		cfg.Fleet.Workers = opts.WorkerCount()
	}
	if cfg.ScenarioWorkers <= 0 {
		cfg.ScenarioWorkers = defaultWorkers(opts.ScenarioWorkers)
	}
	if opts.Obs != nil {
		cfg.Collector = opts.Obs
	}
	return fleet.RunTraffic(cfg)
}

// RenderFleet prints the per-region distribution table of the fleet
// scenario — the global-coverage story (latency by region, high-latitude
// outage, peak-hour dip) the paper's single-vantage campaigns cannot
// show.
func RenderFleet(w io.Writer, res *fleet.Result) {
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

// RenderTraffic prints the per-region probe table of the packet-level
// fleet scenario — measured RTT distributions from actual ICMP exchanges
// through the emulated bent-pipe network, as opposed to the analytic
// latency model of the epoch campaign.
func RenderTraffic(w io.Writer, res *fleet.TrafficResult) {
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
