package core

import (
	"slices"
	"sync"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/web"
)

// This file is the sharded side of the campaign driver: it spreads
// embarrassingly parallel campaign repetitions over a worker pool. Every
// shard builds its own Testbed from a seed derived per shard index
// (sim.DeriveSeed), so shards share no state — not even an RNG — and
// results are written to the shard's own slot and concatenated in shard
// order. Both properties together make the output a pure function of
// (config, seed, shard count): bit-for-bit identical whether one worker
// runs all shards or GOMAXPROCS workers race through them.

// forEachShard runs body(i) for every i in [0,n) on a pool of
// opts.Workers workers, at most n — the caller is one of them, so a single
// worker runs the shards inline — and reports per-shard completion through
// opts.Progress.
func forEachShard(opts Options, n int, body func(shard int)) {
	var (
		mu        sync.Mutex
		completed int
	)
	wk := sim.NewWorkers(min(opts.WorkerCount(), n))
	defer wk.Close()
	wk.Run(n, func(_, i int) {
		body(i)
		if opts.Progress != nil {
			mu.Lock()
			completed++
			opts.Progress(completed, n)
			mu.Unlock()
		}
	})
}

// runSharded is the sharded form of repeat: n repetitions split into
// shards of per repetitions each — a constant, never worker-derived, so
// the shard plan and therefore the output are independent of the worker
// count. Shard i builds its own testbed from the deterministic seed
// sim.DeriveSeed(base, family, i) and runs repetitions i*per onwards on
// it; the results are concatenated in shard order.
func runSharded[T any](cfg Config, opts Options, family string, n, per int, run func(tb *Testbed, first, count int) []T) []T {
	if n <= 0 {
		return nil
	}
	parts := make([][]T, (n+per-1)/per)
	base := opts.baseSeed(cfg)
	forEachShard(opts, len(parts), func(i int) {
		tb := shardTestbed(cfg, sim.DeriveSeed(base, family, i), opts, family, i)
		parts[i] = run(tb, i*per, min(per, n-i*per))
	})
	return slices.Concat(parts...)
}

// shardTestbed builds the testbed for one shard of the named family.
// When opts carries a collector, the shard's config enables
// observability and its sink registers as "<family>/<shard>" with a
// zero-padded index, so lexicographic source order equals shard order —
// the property that makes the collector's exports worker-invariant.
func shardTestbed(cfg Config, seed uint64, opts Options, family string, shard int) *Testbed {
	cfg.Seed = seed
	if opts.Obs != nil {
		cfg.Obs.Enabled = true
	}
	tb := NewTestbed(cfg)
	if opts.Obs != nil {
		opts.Obs.Add(obs.ShardSource(family, shard), tb.Obs)
	}
	return tb
}

// Shard sizes of the repetition-based campaigns: small enough that the
// pool load-balances, large enough to amortize building a Testbed per
// shard.
const (
	speedtestShardTests = 2
	webShardVisits      = 10
	h3ShardTransfers    = 1
	msgShardSessions    = 2
)

// RunLatencyCampaignParallel runs reps independent latency campaigns of
// dur each and merges them into one LatencyData whose timeline
// concatenates the repetitions (shard i's samples are offset by i*dur).
func RunLatencyCampaignParallel(cfg Config, reps int, dur, interval time.Duration, opts Options) *LatencyData {
	shards := runSharded(cfg, opts, "latency", reps, 1, func(tb *Testbed, _, _ int) []*LatencyData {
		return []*LatencyData{tb.RunLatencyCampaign(dur, interval)}
	})
	return MergeLatency(shards, dur)
}

// MergeLatency concatenates shard campaign results in shard order. Each
// shard's samples are shifted by shard*window so the merged data reads as
// one long campaign; counters are summed and the anchor order is the
// first shard's.
func MergeLatency(shards []*LatencyData, window time.Duration) *LatencyData {
	out := &LatencyData{
		PerAnchor: make(map[string]*stats.Series),
		Regions:   make(map[string]string),
	}
	for i, sh := range shards {
		if sh == nil {
			continue
		}
		if out.Anchors == nil {
			out.Anchors = sh.Anchors
		}
		out.Sent += sh.Sent
		out.Lost += sh.Lost
		offset := time.Duration(i) * window
		for name, ser := range sh.PerAnchor {
			out.Regions[name] = sh.Regions[name]
			dst := out.PerAnchor[name]
			if dst == nil {
				dst = &stats.Series{}
				out.PerAnchor[name] = dst
			}
			for _, smp := range ser.Samples() {
				dst.Add(smp.At+offset, smp.Value)
			}
		}
	}
	return out
}

// RunSpeedtestCampaignParallel shards n speedtests from the vantage point
// over the worker pool and returns the results in shard order.
func RunSpeedtestCampaignParallel(cfg Config, t Tech, n int, gap time.Duration, opts Options) []measure.SpeedtestResult {
	return runSharded(cfg, opts, "speedtest/"+t.String(), n, speedtestShardTests, func(tb *Testbed, _, count int) []measure.SpeedtestResult {
		return tb.RunSpeedtestCampaign(t, count, gap)
	})
}

// RunWebCampaignParallel shards nVisits page visits from the vantage point
// over the worker pool. Every shard walks the same global site cycle the
// sequential campaign would, so the visited-site sequence matches
// RunWebCampaign.
func RunWebCampaignParallel(cfg Config, t Tech, nVisits int, gap time.Duration, opts Options) []web.VisitResult {
	return runSharded(cfg, opts, "web/"+t.String(), nVisits, webShardVisits, func(tb *Testbed, first, count int) []web.VisitResult {
		return tb.runWebVisits(t, first, count, gap)
	})
}

// RunH3CampaignParallel shards n bulk transfers over the worker pool; the
// campaign holds the records in shard order.
func RunH3CampaignParallel(cfg Config, n, size int, download bool, gap time.Duration, opts Options) *H3Campaign {
	recs := runSharded(cfg, opts, "h3/"+dirName(download), n, h3ShardTransfers, func(tb *Testbed, _, count int) []H3Record {
		return tb.RunH3Campaign(count, size, download, gap).Records
	})
	return &H3Campaign{Records: recs}
}

// RunMessagesCampaignParallel shards n message sessions over the worker
// pool and folds the sessions, in shard order, into one campaign.
func RunMessagesCampaignParallel(cfg Config, n int, sessionDur time.Duration, download bool, opts Options) *MsgCampaign {
	sessions := runSharded(cfg, opts, "messages/"+dirName(download), n, msgShardSessions, func(tb *Testbed, _, count int) []msgSession {
		return tb.runMessageSessions(count, sessionDur, download, tb.QUICConf)
	})
	return foldMessages(sessions)
}

func dirName(download bool) string {
	if download {
		return "down"
	}
	return "up"
}

// SweepJob is one whole-campaign unit of a sweep: a named configuration
// plus the campaign body to run against a Testbed built from it. The body
// runs on its own testbed (reseeded per job), so jobs may execute
// concurrently.
type SweepJob struct {
	Name string
	Cfg  Config
	Run  func(tb *Testbed) any
}

// SweepResult pairs a job name with what its Run returned.
type SweepResult struct {
	Name  string
	Seed  uint64
	Value any
}

// RunSweep executes whole-campaign jobs (different vantage points, config
// ablations, audit passes) across the worker pool and returns their
// results in job order. Each job's testbed is seeded from the job's own
// name and index, so adding a job never perturbs the others.
func RunSweep(jobs []SweepJob, opts Options) []SweepResult {
	out := make([]SweepResult, len(jobs))
	forEachShard(opts, len(jobs), func(i int) {
		job := jobs[i]
		seed := sim.DeriveSeed(opts.baseSeed(job.Cfg), "sweep/"+job.Name, i)
		tb := shardTestbed(job.Cfg, seed, opts, "sweep/"+job.Name, i)
		out[i] = SweepResult{Name: job.Name, Seed: seed, Value: job.Run(tb)}
	})
	return out
}
