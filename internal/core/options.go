package core

import (
	"runtime"

	"starlinkperf/internal/obs"
)

// Options is the shared knob set of the sharded campaign runners: every
// cmd gets one from its flag binder and passes it through to the
// Run*Parallel variants, RunSweep and the fleet scenarios.
type Options struct {
	// Workers caps the number of goroutines executing shards. Zero or
	// negative means GOMAXPROCS. The value never changes results, only
	// wall-clock time: shard seeds and merge order depend solely on the
	// shard index.
	Workers int
	// Seed is the campaign base seed from which every shard derives its
	// own (see sim.DeriveSeed). Zero falls back to the Config's Seed so
	// callers that already thread a seed through Config need not set it
	// twice.
	Seed uint64
	// Progress, when non-nil, is invoked after each shard completes with
	// the number of finished shards and the total. Calls are serialized;
	// done is strictly increasing from 1 to total.
	Progress func(done, total int)
	// Obs, when non-nil, turns on observability for every shard testbed
	// and collects the per-shard sinks. Shards register under
	// zero-padded "<family>/<shard>" source names, so the collector's
	// sorted exports are invariant to worker count and completion order.
	Obs *obs.Collector
	// ScenarioWorkers caps the goroutines advancing the traffic shards
	// *inside* one scenario (RunFleetTraffic), as opposed to Workers,
	// which parallelizes *across* independent campaign shards. Zero or
	// negative means GOMAXPROCS. Like Workers, it never changes results —
	// shards share nothing between epoch barriers, so the output is
	// bit-identical for any value.
	ScenarioWorkers int
}

// defaultWorkers resolves a worker-count knob: zero or negative means
// GOMAXPROCS. Every such knob (Workers, ScenarioWorkers) goes through
// here.
func defaultWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// WorkerCount is Workers with the default applied.
func (o Options) WorkerCount() int { return defaultWorkers(o.Workers) }

// baseSeed resolves the campaign seed against a Config.
func (o Options) baseSeed(cfg Config) uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return cfg.Seed
}
