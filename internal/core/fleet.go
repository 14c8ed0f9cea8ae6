package core

import (
	"runtime"

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
		w := opts.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		cfg.Workers = w
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
		w := opts.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		cfg.Fleet.Workers = w
	}
	if cfg.ScenarioWorkers <= 0 {
		w := opts.ScenarioWorkers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		cfg.ScenarioWorkers = w
	}
	if opts.Obs != nil {
		cfg.Collector = opts.Obs
	}
	return fleet.RunTraffic(cfg)
}
