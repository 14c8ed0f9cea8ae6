// Command starlink-bench runs the full measurement campaign against the
// emulated testbed and prints every table and figure the paper reports.
//
// Scale is controlled by -scale: 1 is a quick pass (~1 minute of wall
// time), larger values lengthen campaigns towards the paper's sample
// sizes (RTT-sample counts in the millions need -scale 8 and some
// patience). The independent campaigns fan out over -workers goroutines,
// each on its own deterministically seeded testbed, so the output is
// identical for any worker count.
package main

import (
	"flag"
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

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

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

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("starlink-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "campaign scale factor")
	seed := fs.Uint64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = GOMAXPROCS)")
	scenarioWorkers := fs.Int("scenario.workers", 0, "goroutines advancing the fleet traffic scenario's shards (0 = GOMAXPROCS); never changes results")
	transport := fs.String("transport", "paper", "transport profile for the campaigns: paper | modern | toggle list (bbr,pacing,zerortt,migration,minrtt,idledecay)")
	quick := fs.Bool("quick", false, "tiny smoke-sized campaigns for CI (ignores -scale)")
	fleetTerminals := fs.Int("fleet.terminals", 0, "override the fleet scenario's terminal count (0 = profile default); the partitioned epoch campaign is bit-identical for any worker count at any size")
	tracePath := fs.String("trace", "", "write the event trace here (.jsonl extension selects JSON Lines, anything else the OTR1 binary format)")
	metricsJSON := fs.String("metrics.json", "", "write the per-shard + merged metrics registry as JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaigns to this file")
	memProfile := fs.String("memprofile", "", "write a post-run heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale < 1 {
		return fmt.Errorf("scale must be >= 1")
	}
	if *workers < 0 || *scenarioWorkers < 0 || *fleetTerminals < 0 {
		return fmt.Errorf("workers, scenario.workers and fleet.terminals must be >= 0 (0 selects the default), got %d, %d, %d",
			*workers, *scenarioWorkers, *fleetTerminals)
	}
	profile, err := core.ParseTransport(*transport)
	if err != nil {
		return err
	}
	sz := sizesFor(*scale, *quick)
	if *fleetTerminals > 0 {
		sz.fleetTerms = *fleetTerminals
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// The files written after the run open before any campaign runs, like
	// the profile above: an unwritable path costs milliseconds, not the
	// whole run.
	traceFile, err := createOutput("trace", *tracePath)
	if err != nil {
		return err
	}
	defer traceFile.Close()
	metricsFile, err := createOutput("metrics.json", *metricsJSON)
	if err != nil {
		return err
	}
	defer metricsFile.Close()
	memFile, err := createOutput("memprofile", *memProfile)
	if err != nil {
		return err
	}
	defer memFile.Close()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Transport = profile
	// Table 1 + Figures 1-2 use one long latency campaign with the
	// paper's scenario events.
	latCfg := cfg
	latCfg.InitialShellFraction = 0.86
	latCfg.FleetGrowthAt = 53 * 24 * time.Hour
	latCfg.Load = core.LoadEpisode{Start: 125 * 24 * time.Hour, End: 139 * 24 * time.Hour, ExtraOneWay: 4 * time.Millisecond}

	// Every campaign below is independent: each runs on its own testbed
	// seeded per job, so the sweep fans them out across the worker pool
	// and the merge order (and thus the report) is worker-count
	// invariant.
	var (
		lat                 *core.LatencyData
		latAnchors          []core.Anchor
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
		{Name: "latency", Cfg: latCfg, Run: func(tb *core.Testbed) any {
			lat = tb.RunLatencyCampaign(sz.latDays, sz.latInterval)
			latAnchors = tb.Anchors
			latSites = len(tb.Sites)
			return nil
		}},
		{Name: "h3-down", Cfg: cfg, Run: func(tb *core.Testbed) any {
			h3d = tb.RunH3Campaign(sz.h3Down, sz.h3Size, true, 20*time.Second)
			return nil
		}},
		{Name: "h3-up", Cfg: cfg, Run: func(tb *core.Testbed) any {
			h3u = tb.RunH3Campaign(sz.h3Up, sz.h3Size, false, 20*time.Second)
			return nil
		}},
		{Name: "messages-down", Cfg: cfg, Run: func(tb *core.Testbed) any {
			md = tb.RunMessagesCampaign(sz.msgSessions, sz.msgDur, true)
			return nil
		}},
		{Name: "messages-up", Cfg: cfg, Run: func(tb *core.Testbed) any {
			mu = tb.RunMessagesCampaign(sz.msgSessions, sz.msgDur, false)
			return nil
		}},
		{Name: "speedtest-starlink", Cfg: cfg, Run: func(tb *core.Testbed) any {
			sl = tb.RunSpeedtestCampaign(core.TechStarlink, sz.stStarlink, 30*time.Minute)
			return nil
		}},
		{Name: "speedtest-satcom", Cfg: cfg, Run: func(tb *core.Testbed) any {
			sc = tb.RunSpeedtestCampaign(core.TechSatCom, sz.stSatCom, 30*time.Minute)
			return nil
		}},
		{Name: "web-starlink", Cfg: cfg, Run: func(tb *core.Testbed) any {
			webSL = tb.RunWebCampaign(core.TechStarlink, sz.webVisits, 2*time.Second)
			return nil
		}},
		{Name: "web-satcom", Cfg: cfg, Run: func(tb *core.Testbed) any {
			webSC = tb.RunWebCampaign(core.TechSatCom, sz.webVisits, 2*time.Second)
			return nil
		}},
		{Name: "web-wired", Cfg: cfg, Run: func(tb *core.Testbed) any {
			webWD = tb.RunWebCampaign(core.TechWired, sz.webVisits, 2*time.Second)
			return nil
		}},
		{Name: "middlebox-starlink", Cfg: cfg, Run: func(tb *core.Testbed) any {
			mbSL = tb.RunMiddleboxAudit(core.TechStarlink)
			return nil
		}},
		{Name: "middlebox-satcom", Cfg: cfg, Run: func(tb *core.Testbed) any {
			mbSC = tb.RunMiddleboxAudit(core.TechSatCom)
			return nil
		}},
		{Name: "wehe", Cfg: cfg, Run: func(tb *core.Testbed) any {
			weheDs = tb.RunWeheAudit(core.TechStarlink, sz.weheRepeats)
			return nil
		}},
		{Name: "wired-baseline", Cfg: cfg, Run: func(tb *core.Testbed) any {
			bc := tb.RunH3CampaignFrom(tb.PCWired, sz.baseline, sz.h3Size, true, 5*time.Second, tb.QUICConf)
			for _, r := range bc.Records {
				baseSent += r.Loss.PacketsSent
				baseLost += r.Loss.PacketsLost
			}
			return nil
		}},
	}
	// Observability is collected only when an export flag will consume
	// it, so plain runs keep the disabled single-branch fast path.
	var collector *obs.Collector
	if traceFile != nil || metricsFile != nil {
		collector = obs.NewCollector()
	}
	opts := core.Options{
		Workers:         *workers,
		ScenarioWorkers: *scenarioWorkers,
		Seed:            *seed,
		Obs:             collector,
		Progress: func(done, total int) {
			fmt.Fprintf(stderr, "campaigns: %d/%d done\n", done, total)
		},
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
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
	fmt.Fprintf(stderr, "running %d campaigns on %d workers...\n", len(jobs), nw)
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

	fig1 := core.Figure1(lat, latAnchors)
	t2 := core.MakeTable2(h3d, h3u, md, mu)
	fig5 := core.MakeFigure5(sl, sc, h3d, h3u)

	var out strings.Builder
	core.RenderTable1(&out, sz.latDays, sz.latDays, sz.latDays, sz.latDays, len(latAnchors), latSites)
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
	renderFleet(&out, fleetRes)
	out.WriteString("\n")
	renderTraffic(&out, trafficRes)

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
