package cli

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/fleet"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/web"
	"starlinkperf/internal/wehe"
)

// sizes fixes every campaign dimension of one bench run.
type sizes struct {
	latDays      time.Duration
	latInterval  time.Duration
	h3Down       int
	h3Up         int
	h3Size       int
	msgSessions  int
	msgDur       time.Duration
	stStarlink   int
	stSatCom     int
	webVisits    int
	weheRepeats  int
	baseline     int
	fleetTerms   int
	fleetSpan    time.Duration
	trafficTerms int
	trafficSpan  time.Duration
}

func sizesFor(scale int, quick bool) sizes {
	if quick {
		return sizes{
			latDays: 6 * time.Hour, latInterval: 30 * time.Minute,
			h3Down: 1, h3Up: 1, h3Size: 10 << 20,
			msgSessions: 1, msgDur: time.Minute,
			stStarlink: 2, stSatCom: 2,
			webVisits: 4, weheRepeats: 1, baseline: 1,
			fleetTerms: 10000, fleetSpan: 2 * time.Hour,
			trafficTerms: 4000, trafficSpan: 30 * time.Second,
		}
	}
	latInterval := 30 * time.Minute
	if scale >= 4 {
		latInterval = 5 * time.Minute
	}
	return sizes{
		latDays: time.Duration(min(150, 10*scale)) * 24 * time.Hour, latInterval: latInterval,
		h3Down: 6 * scale, h3Up: 4 * scale, h3Size: 100 << 20,
		msgSessions: 4 * scale, msgDur: 2 * time.Minute,
		stStarlink: 16 * scale, stSatCom: 8 * scale,
		webVisits: 40 * scale, weheRepeats: min(10, 2*scale), baseline: 4,
		fleetTerms: 20000, fleetSpan: time.Duration(min(24, 6*scale)) * time.Hour,
		trafficTerms: 10000, trafficSpan: time.Duration(min(8, 2*scale)) * time.Minute,
	}
}

// starlinkBench runs the full measurement campaign and prints every table
// and figure the paper reports.
func starlinkBench(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("starlink-bench", stderr, withWorkers|withTransport)
	scale := fs.Int("scale", 1, "campaign scale factor")
	scenarioWorkers := fs.Int("scenario.workers", 0, "goroutines advancing the fleet traffic scenario's shards (0 = GOMAXPROCS); never changes results")
	quick := fs.Bool("quick", false, "tiny smoke-sized campaigns for CI (ignores -scale)")
	fleetTerminals := fs.Int("fleet.terminals", 0, "override the fleet scenario's terminal count (0 = profile default); the partitioned epoch campaign is bit-identical for any worker count at any size")
	tracePath := fs.String("trace", "", "write the event trace here (.jsonl extension selects JSON Lines, anything else the OTR1 binary format)")
	metricsJSON := fs.String("metrics.json", "", "write the per-shard + merged metrics registry as JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaigns to this file")
	memProfile := fs.String("memprofile", "", "write a post-run heap profile to this file")
	cfg, opts, err := fs.parse(args)
	if err != nil {
		return err
	}
	if *scale < 1 {
		return fmt.Errorf("scale must be >= 1")
	}
	if *scenarioWorkers < 0 || *fleetTerminals < 0 {
		return fmt.Errorf("scenario.workers and fleet.terminals must be >= 0 (0 selects the default), got %d, %d",
			*scenarioWorkers, *fleetTerminals)
	}
	sz := sizesFor(*scale, *quick)
	if *fleetTerminals > 0 {
		sz.fleetTerms = *fleetTerminals
	}

	// Every file the run writes opens before any campaign runs: an
	// unwritable path costs milliseconds, not the whole run.
	var files [4]*os.File
	for i, o := range [4][2]string{{"cpuprofile", *cpuProfile}, {"trace", *tracePath}, {"metrics.json", *metricsJSON}, {"memprofile", *memProfile}} {
		if files[i], err = createOutput(o[0], o[1]); err != nil {
			return err
		}
		defer files[i].Close()
	}
	cpuFile, traceFile, metricsFile, memFile := files[0], files[1], files[2], files[3]
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// Table 1 + Figures 1-2 use one long latency campaign with the
	// paper's scenario events.
	latCfg := paperScenario(cfg)

	// Every campaign below is independent: each runs on its own testbed
	// seeded per job, so the sweep fans them out across the worker pool
	// and the merge order (and thus the report) is worker-count
	// invariant.
	var (
		lat                 *core.LatencyData
		latSites            int
		h3d, h3u            *core.H3Campaign
		md, mu              *core.MsgCampaign
		sl, sc              []measure.SpeedtestResult
		webSL, webSC, webWD []web.VisitResult
		mbSL, mbSC          core.MiddleboxAudit
		weheDs              []wehe.Detection
		baseSent, baseLost  uint64
	)
	jobs := []core.SweepJob{
		job("latency", latCfg, func(tb *core.Testbed) {
			lat = tb.RunLatencyCampaign(sz.latDays, sz.latInterval)
			latSites = len(tb.Sites)
		}),
		job("h3-down", cfg, func(tb *core.Testbed) {
			h3d = tb.RunH3Campaign(sz.h3Down, sz.h3Size, true, 20*time.Second)
		}),
		job("h3-up", cfg, func(tb *core.Testbed) {
			h3u = tb.RunH3Campaign(sz.h3Up, sz.h3Size, false, 20*time.Second)
		}),
		job("messages-down", cfg, func(tb *core.Testbed) {
			md = tb.RunMessagesCampaign(sz.msgSessions, sz.msgDur, true)
		}),
		job("messages-up", cfg, func(tb *core.Testbed) {
			mu = tb.RunMessagesCampaign(sz.msgSessions, sz.msgDur, false)
		}),
		job("speedtest-starlink", cfg, func(tb *core.Testbed) {
			sl = tb.RunSpeedtestCampaign(core.TechStarlink, sz.stStarlink, 30*time.Minute)
		}),
		job("speedtest-satcom", cfg, func(tb *core.Testbed) {
			sc = tb.RunSpeedtestCampaign(core.TechSatCom, sz.stSatCom, 30*time.Minute)
		}),
		job("web-starlink", cfg, func(tb *core.Testbed) {
			webSL = tb.RunWebCampaign(core.TechStarlink, sz.webVisits, 2*time.Second)
		}),
		job("web-satcom", cfg, func(tb *core.Testbed) {
			webSC = tb.RunWebCampaign(core.TechSatCom, sz.webVisits, 2*time.Second)
		}),
		job("web-wired", cfg, func(tb *core.Testbed) {
			webWD = tb.RunWebCampaign(core.TechWired, sz.webVisits, 2*time.Second)
		}),
		job("middlebox-starlink", cfg, func(tb *core.Testbed) {
			mbSL = tb.RunMiddleboxAudit(core.TechStarlink)
		}),
		job("middlebox-satcom", cfg, func(tb *core.Testbed) {
			mbSC = tb.RunMiddleboxAudit(core.TechSatCom)
		}),
		job("wehe", cfg, func(tb *core.Testbed) {
			weheDs = tb.RunWeheAudit(core.TechStarlink, sz.weheRepeats)
		}),
		job("wired-baseline", cfg, func(tb *core.Testbed) {
			bc := tb.RunH3CampaignFrom(tb.PCWired, sz.baseline, sz.h3Size, true, 5*time.Second, tb.QUICConf)
			for _, r := range bc.Records {
				baseSent += r.Loss.PacketsSent
				baseLost += r.Loss.PacketsLost
			}
		}),
	}
	// Observability is collected only when an export flag will consume
	// it, so plain runs keep the disabled single-branch fast path.
	var collector *obs.Collector
	if traceFile != nil || metricsFile != nil {
		collector = obs.NewCollector()
	}
	opts.ScenarioWorkers = *scenarioWorkers
	opts.Obs = collector
	opts.Progress = func(done, total int) {
		fmt.Fprintf(stderr, "campaigns: %d/%d done\n", done, total)
	}
	// Engine telemetry, on stderr only: how many events each campaign's
	// scheduler ran and how deep its queue got, so a queue twenty thousand
	// timers deep shows without a profiler. Never part of the byte-diffed
	// report or the deterministic exports.
	type queueStat struct {
		events uint64
		peak   int
	}
	queues := make([]queueStat, len(jobs))
	for i := range jobs {
		run := jobs[i].Run
		jobs[i].Run = func(tb *core.Testbed) any {
			res := run(tb)
			queues[i] = queueStat{tb.Sched.Processed, tb.Sched.QueuePeak()}
			return res
		}
	}
	fmt.Fprintf(stderr, "running %d campaigns on %d workers...\n", len(jobs), opts.WorkerCount())
	core.RunSweep(jobs, opts)
	for i, q := range queues {
		fmt.Fprintf(stderr, "scheduler: %-18s %9d events, queue peak %d\n", jobs[i].Name, q.events, q.peak)
	}

	// The fleet scenario runs after the sweep on the same options: seed
	// and worker count flow through, and its per-region metrics/trace
	// join the collector as the "fleet/0000" source.
	fmt.Fprintf(stderr, "fleet: %d terminals over %v...\n", sz.fleetTerms, sz.fleetSpan)
	fleetRes := core.RunFleetScenario(fleet.Config{Terminals: sz.fleetTerms, Horizon: sz.fleetSpan}, opts)

	// The packet-level traffic scenario: the same fleet, but every
	// terminal actually probing its gateway through the emulated network,
	// partitioned spatially into independent shards that
	// -scenario.workers goroutines advance between epoch barriers. Output is bit-identical for
	// any worker count (TestRunVariantMatrix byte-diffs it).
	fmt.Fprintf(stderr, "traffic: %d terminals over %v (sharded)...\n", sz.trafficTerms, sz.trafficSpan)
	trafficRes := core.RunFleetTraffic(fleet.TrafficConfig{
		Fleet: fleet.Config{Terminals: sz.trafficTerms, Horizon: sz.trafficSpan, Epoch: 15 * time.Second},
	}, opts)

	fig1 := core.Figure1(lat, lat.Anchors)
	t2 := core.MakeTable2(h3d, h3u, md, mu)
	fig5 := core.MakeFigure5(sl, sc, h3d, h3u)

	var out strings.Builder
	core.RenderTable1(&out, sz.latDays, sz.latDays, sz.latDays, sz.latDays, len(lat.Anchors), latSites)
	out.WriteString("\n")
	core.RenderFigure1(&out, fig1)
	out.WriteString("\n")
	bins := core.Figure2(lat)
	step := max(1, len(bins)/24)
	var shown []core.Figure2Bin
	for i := 0; i < len(bins); i += step {
		shown = append(shown, bins[i])
	}
	core.RenderFigure2(&out, shown)
	out.WriteString("\n")

	core.RenderFigure3(&out, core.MakeFigure3(h3d, h3u))
	out.WriteString("\n")
	core.RenderTable2(&out, t2)
	out.WriteString("\n")
	core.RenderFigure4(&out, core.MakeFigure4("H3 transfers", h3d.BurstLengths(), h3u.BurstLengths()))
	core.RenderFigure4(&out, core.MakeFigure4("messaging transfers", md.BurstLengths(), mu.BurstLengths()))
	core.LossDurations(&out, "H3 downloads", h3d.EventDurations())
	core.LossDurations(&out, "message downloads", md.EventDurations())
	out.WriteString("\n")

	core.RenderFigure5(&out, fig5)
	out.WriteString("\n")

	visits := map[string][]web.VisitResult{"starlink": webSL, "satcom": webSC, "wired": webWD}
	core.RenderFigure6(&out, core.MakeFigure6(visits))
	out.WriteString("\n")

	core.RenderMiddleboxAudit(&out, "starlink", mbSL)
	core.RenderMiddleboxAudit(&out, "satcom", mbSC)
	out.WriteString("\n")
	core.RenderWehe(&out, "starlink", weheDs)
	out.WriteString("\n")
	core.RenderFleet(&out, fleetRes)
	out.WriteString("\n")
	core.RenderTraffic(&out, trafficRes)

	fmt.Fprintf(&out, "\nWired-baseline H3 downloads: %d packets sent, %d lost (paper: 10 of 5.8M)\n", baseSent, baseLost)

	if _, err := io.WriteString(stdout, out.String()); err != nil {
		return err
	}

	if traceFile != nil {
		blob := collector.ExportTraceJSONL()
		if !strings.HasSuffix(*tracePath, ".jsonl") {
			blob = collector.ExportTraceBinary()
		}
		if err := writeOutput(traceFile, blob); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %s (%d bytes)\n", *tracePath, len(blob))
	}
	if metricsFile != nil {
		if err := writeOutput(metricsFile, collector.ExportMetricsJSON()); err != nil {
			return fmt.Errorf("metrics.json: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *metricsJSON)
	}

	if memFile != nil {
		runtime.GC() // materialize final live-set statistics
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := memFile.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// createOutput opens the file a flag names for writing, or returns nil
// when the flag is unset. A nil *os.File is safe to Close.
func createOutput(flagName, path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	return f, nil
}

// writeOutput writes blob to a file createOutput opened and closes it.
func writeOutput(f *os.File, blob []byte) error {
	if _, err := f.Write(blob); err != nil {
		return err
	}
	return f.Close()
}
