package core

import (
	"fmt"
	"io"
	"math"

	"starlinkperf/internal/fleet"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/stats"
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
// show. A statistic of no samples prints as stats.NoSample.
func RenderFleet(w io.Writer, res *fleet.Result) {
	fmt.Fprintf(w, "=== starlink-fleet scenario ===\n")
	fmt.Fprintf(w, "%d terminals, %d epochs, %d cells, %d satellites\n\n",
		res.Terminals, res.Epochs, res.Cells, res.Satellites)
	fmt.Fprintf(w, "%-14s %6s %8s %7s %7s %9s %9s %8s %6s\n",
		"region", "terms", "outage%", "p50ms", "p95ms", "handovers", "peak p50", "off p50", "dip%")
	empty := false
	for _, rr := range res.Regions {
		none, noPeak, noOff := rr.Samples == 0, rr.PeakMbpsP50 == 0, rr.OffPeakMbpsP50 == 0 // a served share is > 0
		empty = empty || none || noPeak || noOff
		stats.Fprintf(w, "%-14s %6d %8.2f %7.1f %7.1f %9d %9.1f %8.1f %6.1f\n",
			rr.Region, rr.Terminals, rr.OutagePct, orNoSample(rr.LatencyP50Ms, none), orNoSample(rr.LatencyP95Ms, none),
			rr.Handovers, orNoSample(rr.PeakMbpsP50, noPeak), orNoSample(rr.OffPeakMbpsP50, noOff), orNoSample(rr.PeakDipPct, noPeak || noOff))
	}
	if empty {
		fmt.Fprintf(w, "%s: no samples (the region was in outage throughout, or the campaign never entered, or never left, its local 18-23 h)\n", stats.NoSample)
	}
}

// orNoSample is v, or NaN — which stats.Fprintf prints as stats.NoSample —
// when no sample lies behind it.
func orNoSample(v float64, none bool) float64 {
	if none {
		return math.NaN()
	}
	return v
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
	empty := false
	for _, rr := range res.Regions {
		empty = empty || rr.Recv == 0
		stats.Fprintf(w, "%-14s %9d %9d %9d %7.2f %8.1f %8.1f\n", rr.Region, rr.Sent, rr.Recv, rr.Skipped,
			rr.LossPct, orNoSample(rr.RTTP50Ms, rr.Recv == 0), orNoSample(rr.RTTP95Ms, rr.Recv == 0))
	}
	if empty {
		fmt.Fprintf(w, "%s: no reply received\n", stats.NoSample)
	}
}
