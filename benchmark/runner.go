package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// metricValue is one reported number. Quartiles and the sample count sit
// beside a median; Unresolved marks an end-to-end metric whose iterations
// spread (IQR/median) wider than its regression bound, which a comparison
// must not read as "unchanged".
type metricValue struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Q1         float64 `json:"q1,omitempty"`
	Q3         float64 `json:"q3,omitempty"`
	N          int     `json:"n,omitempty"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

// runResult is the machine-readable outcome of one workload run.
type runResult struct {
	Workload     string                 `json:"workload"`
	Traced       bool                   `json:"traced"`
	Env          environment            `json:"env"`
	Loop         string                 `json:"loop"`
	Iterations   int                    `json:"iterations"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	FailedShare  float64                `json:"failed_share"`
	SimDigest    string                 `json:"sim_digest"`
	Failures     []string               `json:"failures,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	Samples      map[string][]float64   `json:"samples,omitempty"`
	Paper        map[string]float64     `json:"paper"`
	WallS        float64                `json:"run_wall_s"`
	// Traced runs only.
	StageSelfS    map[string]float64 `json:"stage_self_s,omitempty"`
	StageCoverage float64            `json:"stage_coverage,omitempty"`
	Spans         []span             `json:"spans,omitempty"`
}

const closedLoop = "closed: each iteration starts when the previous returns; no arrival schedule"

// minIterations is the fewest timed iterations a phase runs even when one
// iteration outlasts its time budget.
const minIterations = 3

// tally accumulates operation accounting and digest checks over the
// iterations of a run.
type tally struct {
	digest            string
	attempted, failed int
	failures          []string
	paper             map[string]float64
}

// add accounts one iteration and returns how many of its operations
// completed correctly. An iteration whose digest differs from the first
// one's fails all its operations: same inputs, so any difference is
// nondeterminism in the program.
func (t *tally) add(it *iterOut, label string) (ok int) {
	attempted, failed := it.ops()
	if t.digest == "" {
		t.digest = it.digest
	} else if it.digest != t.digest {
		failed = attempted
		t.note(fmt.Sprintf("%s: sim_digest %s differs from the first iteration's %s", label, it.digest, t.digest))
	}
	t.attempted += attempted
	t.failed += failed
	for _, o := range it.stages {
		for _, why := range o.why {
			t.note(label + ": " + why)
		}
		for k, v := range o.paper {
			if t.paper == nil {
				t.paper = map[string]float64{}
			}
			t.paper[k] = v
		}
	}
	return attempted - failed
}

func (t *tally) note(s string) {
	if len(t.failures) < 12 {
		t.failures = append(t.failures, s)
	}
}

// runEndToEnd measures the end-to-end metrics of one workload: tracing,
// spans and observability all off.
func runEndToEnd(w *workload, p *profile, spec *benchSpec, seconds float64) *runResult {
	began := time.Now()
	e := &env{workers: w.workers}
	var t tally
	samples := map[string][]float64{}

	// Set-up is repeated so that setup_s is a median: wall from the start
	// of set-up to the end of the warm-up iteration.
	var state any
	for r := 0; r < p.setupRepeats; r++ {
		if state != nil {
			w.close(state)
		}
		start := time.Now()
		state = w.setup(e, p, -1)
		warm := w.iterate(e, p, state, -1, -1)
		samples["setup_s"] = append(samples["setup_s"], time.Since(start).Seconds())
		t.add(warm, fmt.Sprintf("warm-up %d", r))
	}
	defer w.close(state)

	runtime.GC()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	iters := 0
	for ; iters < minIterations || time.Now().Before(deadline); iters++ {
		h0 := readHost()
		it := w.iterate(e, p, state, -1, iters)
		h1 := readHost()
		wall := h1.wall.Sub(h0.wall).Seconds()
		ok := t.add(it, fmt.Sprintf("iteration %d", iters))
		samples["iter_wall_s"] = append(samples["iter_wall_s"], wall)
		samples["ops_per_s"] = append(samples["ops_per_s"], float64(ok)/wall)
		samples["cpu_s_per_iter"] = append(samples["cpu_s_per_iter"], (h1.cpu - h0.cpu).Seconds())
		samples["alloc_mb_per_iter"] = append(samples["alloc_mb_per_iter"], float64(h1.bytes-h0.bytes)/(1<<20))
		samples["allocs_per_iter"] = append(samples["allocs_per_iter"], float64(h1.mallocs-h0.mallocs))
		samples["heap_live_mb"] = append(samples["heap_live_mb"], liveHeapMB())
	}

	res := newResult(w, false, iters, &t)
	res.Samples = samples
	for _, m := range spec.EndToEnd {
		xs := samples[m.Name]
		q1, med, q3 := quartiles(xs)
		mv := metricValue{Value: med, Unit: m.Unit, Q1: q1, Q3: q3, N: len(xs)}
		mv.Unresolved = spreadGuarded(m) && relSpread(xs) > m.Bound
		res.Metrics[m.Name] = mv
	}
	res.WallS = time.Since(began).Seconds()
	return res
}

func newResult(w *workload, traced bool, iters int, t *tally) *runResult {
	res := &runResult{
		Workload: w.name, Traced: traced, Loop: closedLoop,
		Iterations: iters, OpsAttempted: t.attempted, OpsFailed: t.failed,
		SimDigest: t.digest, Failures: t.failures,
		Metrics: map[string]metricValue{}, Paper: t.paper,
	}
	if t.attempted > 0 {
		res.FailedShare = float64(t.failed) / float64(t.attempted)
	}
	if res.Paper == nil {
		res.Paper = map[string]float64{}
	}
	return res
}

// tracedData is everything the traced run collected, which layers.go
// turns into the per-layer ledger.
type tracedData struct {
	w         *workload
	p         *profile
	rec       *spanRecorder
	root      int
	setupID   int
	plain     []float64          // iteration wall, everything off
	obsOn     []float64          // iteration wall, observability on
	traced    []float64          // iteration wall, observability + spans + CPU profile
	iters     []*iterOut         // the traced phase's iterations
	iterIDs   []int              // their spans
	snapshot  map[string]float64 // merged obs registry of the last traced iteration
	records   int                // trace records that iteration exported
	ringsFull int                // trace rings that filled (oldest records overwritten)
	exportMs  float64
	shares    map[string]float64
	generator float64
	gcCycles  uint32
	gcPauseMs float64
	single    *iterOut // the same iteration on one worker (two-worker workloads)
	fleet     fleetTrace
	probes    map[string]float64
}

// fleetTrace holds fleet_scale's extra readings.
type fleetTrace struct {
	bytesPerTerminal float64
	epochMs          []float64 // individually timed epochs, two workers
	allocsPerEpoch   float64
}

// tracedIteration runs one iteration under e with a span around it and a
// fresh collector when observability is on, and returns its wall.
func tracedIteration(w *workload, e *env, p *profile, state any, t *tally, label string, parent, i int) (wall float64, it *iterOut, id int) {
	if e.collector != nil {
		e.collector = obs.NewCollector()
	}
	id = e.rec.begin("iteration", parent, i)
	start := time.Now()
	it = w.iterate(e, p, state, id, i)
	wall = time.Since(start).Seconds()
	e.rec.end(id)
	t.add(it, fmt.Sprintf("%s iteration %d", label, i))
	return wall, it, id
}

// runTraced is the separate run that fills the per-layer ledger: spans
// around every call into a layer, observability on, a CPU profile, the
// isolated probes, and a one-worker repeat of the two-worker workloads.
func runTraced(w *workload, p *profile, spec *benchSpec, seconds float64) (*runResult, error) {
	began := time.Now()
	var t tally
	d := &tracedData{w: w, p: p, rec: newSpanRecorder()}
	d.root = d.rec.begin("workload:"+w.name, -1, -1)
	setupEnv := &env{workers: w.workers, rec: d.rec}
	heapBefore := liveHeapMB()
	d.setupID = d.rec.begin("setup", d.root, -1)
	state := w.setup(setupEnv, p, d.setupID)
	d.rec.end(d.setupID)
	if w.name == "fleet_scale" {
		d.fleet.bytesPerTerminal = (liveHeapMB() - heapBefore) * (1 << 20) / float64(p.fleetTerms)
	}
	defer func() { w.close(state) }()
	warmID := d.rec.begin("warm-up", d.root, -1)
	t.add(w.iterate(setupEnv, p, state, warmID, -1), "warm-up")
	d.rec.end(warmID)

	// The same iteration three ways, in turn: everything off,
	// observability on, fully traced (observability, spans, CPU profile).
	// Taking turns keeps the three on the same footing while the process
	// and the machine drift; their wall ratios are obs.overhead_pct and
	// bench.trace_overhead_pct. The fully traced ones feed the ledger.
	plainEnv := &env{workers: w.workers}
	obsEnv := &env{workers: w.workers, collector: obs.NewCollector()}
	tracedEnv := &env{workers: w.workers, collector: obs.NewCollector(), rec: d.rec, detail: true}
	var samples []profSample
	deadline := time.Now().Add(time.Duration(0.75 * seconds * float64(time.Second)))
	for i := 0; i < minIterations || time.Now().Before(deadline); i++ {
		wall, _, _ := tracedIteration(w, plainEnv, p, state, &t, "plain", -1, i)
		d.plain = append(d.plain, wall)
		wall, _, _ = tracedIteration(w, obsEnv, p, state, &t, "obs", -1, i)
		d.obsOn = append(d.obsOn, wall)

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		h0 := readHost()
		wall, it, id := tracedIteration(w, tracedEnv, p, state, &t, "traced", d.root, i)
		h1 := readHost()
		pprof.StopCPUProfile()
		d.traced, d.iters, d.iterIDs = append(d.traced, wall), append(d.iters, it), append(d.iterIDs, id)
		d.gcCycles += h1.numGC - h0.numGC
		d.gcPauseMs += float64(h1.pauseNs-h0.pauseNs) / 1e6
		more, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		samples = append(samples, more...)
	}
	d.shares, d.generator = cpuShares(samples)

	start := time.Now()
	blob := obsEnv.collector.ExportTraceBinary()
	metricsBlob := obsEnv.collector.ExportMetricsJSON()
	d.exportMs = float64(time.Since(start)) / float64(time.Millisecond)
	if len(blob) == 0 || len(metricsBlob) == 0 {
		t.note("obs export is empty")
	}
	d.snapshot = tracedEnv.collector.Snapshot()
	jsonl := tracedEnv.collector.ExportTraceJSONL()
	d.records = bytes.Count(jsonl, []byte("\n"))
	d.ringsFull = fullRings(jsonl)

	if fs, ok := state.(*fleetState); ok {
		d.fleet.epochMs, d.fleet.allocsPerEpoch = sampleEpochs(d, fs, p.epochSamples)
	}

	// The same iteration on one worker: parallel efficiency, and the
	// digest must not depend on the worker count.
	if w.workers > 1 {
		one := &env{workers: 1, rec: d.rec, detail: true}
		id := d.rec.begin("workers=1", d.root, -1)
		st := w.setup(one, p, id)
		it := w.iterate(one, p, st, id, -1)
		w.close(st)
		d.rec.end(id)
		if it.digest != t.digest {
			t.note(fmt.Sprintf("sim_digest at 1 worker %s differs from %d workers %s", it.digest, w.workers, t.digest))
			t.attempted++
			t.failed++
		}
		d.single = it
	}

	id := d.rec.begin("probes", d.root, -1)
	d.probes = runProbes(p)
	d.rec.end(id)
	d.rec.end(d.root)

	res := newResult(w, true, len(d.traced), &t)
	res.Spans = d.rec.spans
	values, err := ledger(d, res)
	if err != nil {
		return nil, err
	}
	for _, m := range spec.PerLayer {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s is declared in BENCHMARK.json but not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(values, m.Name)
	}
	for name := range values {
		return nil, fmt.Errorf("per-layer metric %s is measured but not declared in BENCHMARK.json", name)
	}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// fullRings counts trace sources whose ring filled to capacity, i.e. that
// overwrote their oldest records: the tracer exports no drop counter, but
// a full ring exports exactly obs.DefaultTraceCap records.
func fullRings(jsonl []byte) int {
	perSource := map[string]int{}
	for _, line := range bytes.Split(jsonl, []byte("\n")) {
		// Every record starts {"src":"<name>",...
		const prefix = `{"src":"`
		if !bytes.HasPrefix(line, []byte(prefix)) {
			continue
		}
		rest := line[len(prefix):]
		if end := bytes.IndexByte(rest, '"'); end > 0 {
			perSource[string(rest[:end])]++
		}
	}
	full := 0
	for _, n := range perSource {
		if n >= obs.DefaultTraceCap {
			full++
		}
	}
	return full
}

// sampleEpochs times single epochs on the standing fleet, each under its
// own span, and returns their walls and the allocations per epoch.
func sampleEpochs(d *tracedData, fs *fleetState, n int) (ms []float64, allocsPerEpoch float64) {
	parent := d.rec.begin("epoch samples", d.root, -1)
	defer d.rec.end(parent)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for e := 0; e < n; e++ {
		id := d.rec.begin("fleet.RunEpoch", parent, -1)
		start := time.Now()
		fs.f.RunEpoch(e, sim.Time(int64(e)*int64(fleetEpoch)))
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
		d.rec.end(id)
	}
	runtime.ReadMemStats(&after)
	return ms, float64(after.Mallocs-before.Mallocs) / float64(n)
}
