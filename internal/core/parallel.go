package core

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/netem"
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

// forEachShard runs body(i, slot) for every i in [0,n) on a pool of
// opts.Workers workers, at most n — the caller is one of them, so a single
// worker runs the shards inline — and reports per-shard completion through
// opts.Progress. slot is the running worker's own: a testbed body builds
// with shardTestbed takes over the freelists of the one the same worker
// built before it, so pools live as long as the sweep, not the testbed.
func forEachShard(opts Options, n int, body func(shard int, slot *poolSlot)) {
	var (
		mu        sync.Mutex
		completed int
	)
	wk := sim.NewWorkers(min(opts.WorkerCount(), n))
	defer wk.Close()
	slots := make([]poolSlot, wk.Size())
	wk.Run(n, func(w, i int) {
		body(i, &slots[w])
		if opts.Progress != nil {
			mu.Lock()
			completed++
			opts.Progress(completed, n)
			mu.Unlock()
		}
	})
}

// poolSlot is one sweep worker's handover point: the network of the
// testbed it built last, whose listed pool objects the next testbed it
// builds inherits before its first packet (netem.Network.Inherit). What a
// job's result depends on never includes what ran before it on its
// worker: every pooled object is reset when it is drawn.
type poolSlot struct{ last *netem.Network }

// handOver gives nw the pools of the worker's previous network and keeps
// nw for the next one.
func (s *poolSlot) handOver(nw *netem.Network) {
	nw.Inherit(s.last)
	s.last = nw
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
	forEachShard(opts, len(parts), func(i int, slot *poolSlot) {
		tb := shardTestbed(cfg, sim.DeriveSeed(base, family, i), opts, family, i, slot)
		parts[i] = run(tb, i*per, min(per, n-i*per))
	})
	return slices.Concat(parts...)
}

// shardTestbed builds the testbed for one shard of the named family, its
// network inheriting the pools of slot's previous one. When opts carries
// a collector, the shard's network is observed through a sink of its
// own, registered as "<family>/<shard>" with a zero-padded index, so
// lexicographic source order equals shard order — the property that
// makes the collector's exports worker-invariant.
func shardTestbed(cfg Config, seed uint64, opts Options, family string, shard int, slot *poolSlot) *Testbed {
	cfg.Seed = seed
	var tb *Testbed
	if opts.Obs == nil {
		tb = NewTestbed(cfg)
	} else {
		sink := obs.NewSink()
		opts.Obs.Add(obs.ShardSource(family, shard), sink)
		tb = newTestbed(cfg, sink)
	}
	slot.handOver(tb.Net)
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
		return tb.runMessageSessions(count, sessionDur, download)
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
// results in job order. Job i's testbed is seeded from its name and its
// index i, so appending a job never perturbs the others, while inserting
// or reordering one re-seeds every job after it. Jobs are dispatched
// longest first (LPT): by the wall time the same-named job took in this
// process's previous sweep, with jobs never seen before going first and
// ties keeping job order. The dispatch order moves wall time only; seeds,
// result slots and obs sources all stay keyed by the job index.
func RunSweep(jobs []SweepJob, opts Options) []SweepResult {
	out := make([]SweepResult, len(jobs))
	order := longestFirst(jobs)
	forEachShard(opts, len(jobs), func(k int, slot *poolSlot) {
		i := order[k]
		job := jobs[i]
		start := time.Now()
		seed := sim.DeriveSeed(opts.baseSeed(job.Cfg), "sweep/"+job.Name, i)
		tb := shardTestbed(job.Cfg, seed, opts, "sweep/"+job.Name, i, slot)
		out[i] = SweepResult{Name: job.Name, Seed: seed, Value: job.Run(tb)}
		wall := time.Since(start)
		sweepCosts.mu.Lock()
		sweepCosts.last[job.Name] = wall
		sweepCosts.mu.Unlock()
	})
	return out
}

// sweepCosts holds the wall time each sweep job name took the last time
// it ran in this process, the one input of RunSweep's dispatch order. It
// is process-wide so that a process running the same sweep again (the
// benchmark's timed iterations after its warm-ups) learns the order
// without an option.
var sweepCosts = struct {
	mu   sync.Mutex
	last map[string]time.Duration
}{last: map[string]time.Duration{}}

// longestFirst returns the job indices in dispatch order. An unseen job
// counts as longer than any seen one, and the stable sort keeps job order
// among equals, so a process's first sweep runs in job order.
func longestFirst(jobs []SweepJob) []int {
	order := make([]int, len(jobs))
	cost := make([]time.Duration, len(jobs))
	sweepCosts.mu.Lock()
	for i, job := range jobs {
		order[i] = i
		d, seen := sweepCosts.last[job.Name]
		if !seen {
			d = math.MaxInt64
		}
		cost[i] = d
	}
	sweepCosts.mu.Unlock()
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[b], cost[a]) })
	return order
}
