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
	"encoding/json"
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
	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
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
	scenarioWorkers := fs.Int("scenario.workers", 0, "PDES workers inside the fleet traffic scenario (0 = GOMAXPROCS); never changes results")
	fidelity := fs.String("fidelity", "auto", "fleet traffic emulation fidelity: auto (tiers + fast-forward), tiers, or full; never changes results, only wall clock")
	transport := fs.String("transport", "paper", "transport profile for the campaigns: paper | modern | toggle list (bbr,pacing,zerortt,migration,minrtt,idledecay)")
	quick := fs.Bool("quick", false, "tiny smoke-sized campaigns for CI (ignores -scale)")
	fleetTerminals := fs.Int("fleet.terminals", 0, "override the fleet scenario's terminal count (0 = profile default); the partitioned epoch campaign is bit-identical for any worker count at any size")
	benchJSON := fs.String("bench.json", "", "write headline metrics as JSON to this file")
	tracePath := fs.String("trace", "", "write the event trace here (.jsonl extension selects JSON Lines, anything else the OTR1 binary format)")
	metricsJSON := fs.String("metrics.json", "", "write the per-shard + merged metrics registry as JSON to this file")
	validate := fs.String("validate", "", "validate an existing bench.json against the schema and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaigns to this file")
	memProfile := fs.String("memprofile", "", "write a post-run heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *validate != "" {
		if err := validateBenchJSON(*validate); err != nil {
			return fmt.Errorf("validate %s: %w", *validate, err)
		}
		fmt.Fprintf(stdout, "%s: valid %s report\n", *validate, benchSchema)
		return nil
	}
	if *scale < 1 {
		return fmt.Errorf("scale must be >= 1")
	}
	var fidelityMode fleet.FidelityMode
	switch *fidelity {
	case "auto":
		fidelityMode = fleet.FidelityAuto
	case "tiers":
		fidelityMode = fleet.FidelityTiers
	case "full":
		fidelityMode = fleet.FidelityFull
	default:
		return fmt.Errorf("fidelity must be auto, tiers or full, got %q", *fidelity)
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

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	profile, err := core.ParseTransport(*transport)
	if err != nil {
		return err
	}
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
	// Observability is collected only when something will consume it —
	// an export flag or the bench report — so plain runs keep the
	// disabled single-branch fast path.
	var collector *obs.Collector
	if *tracePath != "" || *metricsJSON != "" || *benchJSON != "" {
		collector = obs.NewCollector()
	}
	opts := core.Options{
		Workers:         *workers,
		ScenarioWorkers: *scenarioWorkers,
		Seed:            *seed,
		Fidelity:        fidelityMode,
		Obs:             collector,
		Progress: func(done, total int) {
			fmt.Fprintf(stderr, "campaigns: %d/%d done\n", done, total)
		},
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	// The PDES engine microbench runs first, before the campaign sweep
	// and fleet scenarios fill the heap: its validator gates reason about
	// engine-intrinsic run-phase cost, and GC pacing scales with the
	// surrounding live heap, not with the engine — timing it in a quiet
	// process state keeps that bias out of the overhead measurement.
	var pdesRep pdesReport
	var fidelityRep fidelityReport
	var transportRep transportReport
	var scaleRep fleetScaleReport
	if *benchJSON != "" {
		fmt.Fprintf(stderr, "pdes microbench: reference + 1/2/4/8-worker sweep...\n")
		pdesRep = pdesMicrobench(*quick, *seed)
		fmt.Fprintf(stderr, "fidelity microbench: full vs tiers vs tiers+fast-forward...\n")
		fidelityRep = fidelityMicrobench(*quick, *seed)
		fmt.Fprintf(stderr, "transport microbench: paper vs modern profiles...\n")
		transportRep = transportMicrobench(*quick, *seed)
		fmt.Fprintf(stderr, "fleet scale sweep: 10k/100k/1M-terminal epochs...\n")
		scaleRep = fleetScaleSweep(*seed)
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
	started := time.Now()
	core.RunSweep(jobs, opts)
	for i, q := range queues {
		fmt.Fprintf(stderr, "scheduler: %-18s %9d events, queue peak %d\n", jobs[i].Name, q.events, q.peak)
	}

	// The fleet scenario runs after the sweep on the same options: seed
	// and worker count flow through, and its per-region metrics/trace
	// join the collector as the "fleet/0000" source.
	fmt.Fprintf(stderr, "fleet: %d terminals over %v...\n", sz.fleetTerms, sz.fleetSpan)
	fleetRes := core.RunFleetScenario(fleet.Config{Terminals: sz.fleetTerms, Horizon: sz.fleetSpan}, opts)

	// The packet-level traffic scenario exercises the conservative-PDES
	// engine: the same fleet, but every terminal actually probing its
	// gateway through the emulated network, partitioned spatially and
	// driven by -scenario.workers goroutines. Output is bit-identical for
	// any worker count (ci.sh byte-diffs it).
	fmt.Fprintf(stderr, "traffic: %d terminals over %v (PDES)...\n", sz.trafficTerms, sz.trafficSpan)
	trafficRes := core.RunFleetTraffic(fleet.TrafficConfig{
		Fleet: fleet.Config{Terminals: sz.trafficTerms, Horizon: sz.trafficSpan, Epoch: 15 * time.Second},
	}, opts)
	wall := time.Since(started)

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

	if *tracePath != "" {
		blob := collector.ExportTraceJSONL()
		if !strings.HasSuffix(*tracePath, ".jsonl") {
			blob = collector.ExportTraceBinary()
		}
		if err := os.WriteFile(*tracePath, blob, 0o644); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %s (%d bytes)\n", *tracePath, len(blob))
	}
	if *metricsJSON != "" {
		if err := os.WriteFile(*metricsJSON, collector.ExportMetricsJSON(), 0o644); err != nil {
			return fmt.Errorf("metrics.json: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *metricsJSON)
	}

	if *benchJSON != "" {
		rep := makeBenchReport(*scale, *quick, nw, *seed, wall, fig1, t2, fig5)
		rep.Fleet = makeFleetReport(fleetRes, *quick)
		rep.Fleet.Scale = scaleRep
		rep.Pdes = pdesRep
		rep.Fidelity = fidelityRep
		rep.Transport = transportRep
		renderPdes(stdout, rep.Pdes)
		renderFidelity(stdout, rep.Fidelity)
		renderTransport(stdout, rep.Transport)
		renderFleetScale(stdout, rep.Fleet.Scale)
		rep.Obs = collector.Snapshot()
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("bench.json: %w", err)
		}
		if err := os.WriteFile(*benchJSON, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench.json: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *benchJSON)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // materialize final live-set statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// benchReport is the machine-readable datapoint one bench run appends to
// the repo's perf trajectory (BENCH_<date>.json). Metrics is a flat
// name → value map so new headline numbers can be added without a schema
// bump; json.Marshal emits map keys sorted, keeping diffs stable.
type benchReport struct {
	Schema    string `json:"schema"`
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	Scale     int    `json:"scale"`
	Quick     bool   `json:"quick"`
	Workers   int    `json:"workers"`
	// Cores is the machine's logical CPU count and GoMaxProcs the
	// scheduler's parallelism at run time; SpeedupGatesArmed records
	// whether the cores-conditional speedup gates (pdes speedup_8w, the
	// fleet scale sweep's parallel_speedup floor) were armed or skipped
	// on the machine that produced this report — so a trajectory file
	// from a small box is never mistaken for a passed parallelism gate.
	Cores             int                `json:"cores"`
	GoMaxProcs        int                `json:"gomaxprocs"`
	SpeedupGatesArmed bool               `json:"speedup_gates_armed"`
	Seed              uint64             `json:"seed"`
	WallSeconds       float64            `json:"wall_seconds"`
	Metrics           map[string]float64 `json:"metrics"`
	// Obs is the merged observability registry flattened to name → value
	// (counters as counts, gauges as maxima, histograms as .count/.sum).
	// It is deterministic for a given (config, seed), so trajectory diffs
	// across PRs stay meaningful.
	Obs        map[string]float64 `json:"obs,omitempty"`
	Geometry   geometryReport     `json:"geometry"`
	Scheduler  schedulerReport    `json:"scheduler"`
	PacketPath packetPathReport   `json:"packet_path"`
	Fleet      fleetReport        `json:"fleet"`
	Pdes       pdesReport         `json:"pdes"`
	Fidelity   fidelityReport     `json:"fidelity"`
	Transport  transportReport    `json:"transport"`
}

const benchSchema = "starlink-bench/v1"

// speedupGatesArmed reports whether this machine has the parallelism to
// back the cores-conditional speedup floors. It keys on GOMAXPROCS, not
// NumCPU: the gates time goroutine scaling, and a 16-core box pinned to
// GOMAXPROCS=1 can express none of it.
func speedupGatesArmed() bool {
	return runtime.GOMAXPROCS(0) >= 8
}

// geometryReport times the serving-satellite hot loop both ways: the
// ECEF/pruned/snapshot fast path versus the naive full scan kept in-tree
// as the reference. Tracking both keeps the speedup honest across PRs.
type geometryReport struct {
	FastEpochs        int     `json:"fast_epochs"`
	NaiveEpochs       int     `json:"naive_epochs"`
	FastNsPerEpoch    float64 `json:"fast_ns_per_epoch"`
	NaiveNsPerEpoch   float64 `json:"naive_ns_per_epoch"`
	AssignmentSpeedup float64 `json:"assignment_speedup"`
	DelayNsPerCall    float64 `json:"delay_ns_per_call"`
	ISLPathNsPerCall  float64 `json:"isl_path_ns_per_call"`
	ISLPathInstants   int     `json:"isl_path_instants"`
	// ISLPathMemoNsPerCall times PathDelay at a repeated instant, where
	// the per-snapshot route memo answers without re-running Dijkstra —
	// the pattern the PDES traffic scenario hits when every terminal in a
	// partition routes within the same position epoch.
	ISLPathMemoNsPerCall float64 `json:"isl_path_memo_ns_per_call"`
}

func makeBenchReport(scale int, quick bool, workers int, seed uint64, wall time.Duration, fig1 []core.Figure1Row, t2 core.Table2, fig5 core.Figure5) benchReport {
	m := map[string]float64{
		"loss_h3_down_pct":  100 * t2.H3Down,
		"loss_h3_up_pct":    100 * t2.H3Up,
		"loss_msg_down_pct": 100 * t2.MsgDown,
		"loss_msg_up_pct":   100 * t2.MsgUp,

		"speedtest_starlink_down_p50_mbps": fig5.StarlinkDown.P50,
		"speedtest_starlink_up_p50_mbps":   fig5.StarlinkUp.P50,
		"speedtest_satcom_down_p50_mbps":   fig5.SatComDown.P50,
		"speedtest_satcom_up_p50_mbps":     fig5.SatComUp.P50,
		"h3_starlink_down_p50_mbps":        fig5.H3Down.P50,
		"h3_starlink_up_p50_mbps":          fig5.H3Up.P50,
	}
	samples := 0
	for _, row := range fig1 {
		key := "latency_" + metricKey(row.Anchor)
		m[key+"_p50_ms"] = row.Summary.P50
		m[key+"_mean_ms"] = row.Summary.Mean
		samples += row.Summary.N
	}
	m["latency_samples"] = float64(samples)

	return benchReport{
		Schema:            benchSchema,
		Date:              time.Now().UTC().Format(time.RFC3339),
		GoVersion:         runtime.Version(),
		Scale:             scale,
		Quick:             quick,
		Workers:           workers,
		Cores:             runtime.NumCPU(),
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		SpeedupGatesArmed: speedupGatesArmed(),
		Seed:              seed,
		WallSeconds:       wall.Seconds(),
		Metrics:           m,
		Geometry:          geometryMicrobench(quick),
		Scheduler:         schedulerMicrobench(quick),
		PacketPath:        packetPathMicrobench(quick),
	}
}

// metricKey lowercases an anchor name into a JSON-metric-friendly slug.
func metricKey(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, name)
}

// geometryMicrobench measures assignment, delay and ISL-path costs on a
// fresh Gen1 shell from the paper's mid-latitude vantage. Every iteration
// uses a distinct epoch/quantum, so memos and the snapshot ring cannot
// short-circuit the measured work (matching BenchmarkAssignmentEpoch et
// al. in internal/leo).
func geometryMicrobench(quick bool) geometryReport {
	pos := geo.LatLon{LatDeg: 50.67, LonDeg: 4.61}
	gws := []leo.Gateway{
		{Name: "ams-gw", Pos: geo.LatLon{LatDeg: 52.31, LonDeg: 4.76}, PoP: "AMS"},
		{Name: "fra-gw", Pos: geo.LatLon{LatDeg: 50.03, LonDeg: 8.57}, PoP: "FRA"},
	}
	con := leo.NewConstellation(leo.NewShell(leo.StarlinkGen1()))
	term := leo.NewTerminal(leo.DefaultTerminalConfig(pos), con, gws)
	epoch := int64(15 * time.Second)

	fastN, naiveN, delayN, islN := 5000, 300, 100000, 50
	if quick {
		fastN, naiveN, delayN, islN = 1000, 60, 20000, 10
	}

	start := time.Now()
	for i := 0; i < fastN; i++ {
		term.AssignmentAt(sim.Time(int64(i) * epoch))
	}
	fastNs := float64(time.Since(start).Nanoseconds()) / float64(fastN)

	start = time.Now()
	for i := 0; i < naiveN; i++ {
		term.ReferenceAssignmentAt(sim.Time(int64(i) * epoch))
	}
	naiveNs := float64(time.Since(start).Nanoseconds()) / float64(naiveN)

	start = time.Now()
	for i := 0; i < delayN; i++ {
		term.DelayAt(sim.Time(int64(i) * int64(10*time.Millisecond)))
	}
	delayNs := float64(time.Since(start).Nanoseconds()) / float64(delayN)

	router := leo.NewISLRouter(con, 0)
	singapore := geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}
	start = time.Now()
	for i := 0; i < islN; i++ {
		router.PathDelay(sim.Time(int64(i)*int64(time.Minute)), pos, singapore, 25)
	}
	islNs := float64(time.Since(start).Nanoseconds()) / float64(islN)

	// Memo path: hammer one already-cached (instant, endpoints, mask)
	// tuple. The first call primes the ring; the loop then measures pure
	// hits.
	memoN := islN * 1000
	memoAt := sim.Time(int64(islN-1) * int64(time.Minute))
	router.PathDelay(memoAt, pos, singapore, 25)
	start = time.Now()
	for i := 0; i < memoN; i++ {
		router.PathDelay(memoAt, pos, singapore, 25)
	}
	memoNs := float64(time.Since(start).Nanoseconds()) / float64(memoN)

	return geometryReport{
		FastEpochs:           fastN,
		NaiveEpochs:          naiveN,
		FastNsPerEpoch:       fastNs,
		NaiveNsPerEpoch:      naiveNs,
		AssignmentSpeedup:    naiveNs / fastNs,
		DelayNsPerCall:       delayNs,
		ISLPathNsPerCall:     islNs,
		ISLPathInstants:      islN,
		ISLPathMemoNsPerCall: memoNs,
	}
}

// schedulerReport times the event loop both ways: the typed 4-ary heap
// with pooled timers versus the seed container/heap queue kept in-tree as
// the reference. The workload is the retransmit churn pattern (stop the
// old timer, re-arm it, schedule the next event) that dominates scheduler
// traffic in the transfer campaigns.
type schedulerReport struct {
	Events            uint64  `json:"events"`
	NsPerEvent        float64 `json:"ns_per_event"`
	AllocsPerEvent    float64 `json:"allocs_per_event"`
	EventsPerSec      float64 `json:"events_per_sec"`
	RefNsPerEvent     float64 `json:"ref_ns_per_event"`
	RefAllocsPerEvent float64 `json:"ref_allocs_per_event"`
	AllocReduction    float64 `json:"alloc_reduction"`
	EventSpeedup      float64 `json:"event_speedup"`
}

// benchChurn mirrors churnConn in internal/sim's benchmarks: a TCP
// sender's timer life cycle driven through package-level EventFuncs.
type benchChurn struct {
	s      *sim.Scheduler
	retx   sim.TimerHandle
	left   int
	period sim.Duration
}

func benchChurnNop(arg any) {}

func benchChurnFire(arg any) {
	c := arg.(*benchChurn)
	c.retx.Stop()
	c.retx = c.s.AfterFunc(10*c.period, benchChurnNop, c)
	if c.left > 0 {
		c.left--
		c.s.AfterFunc(c.period, benchChurnFire, c)
	}
}

// measureChurn runs n churn rounds on s after a warmup and returns
// ns/event and allocs/event, the latter from the runtime's cumulative
// malloc counter so pooled (non-allocating) timers genuinely read zero.
func measureChurn(s *sim.Scheduler, n int) (nsPerEvent, allocsPerEvent float64, events uint64) {
	c := &benchChurn{s: s, period: sim.Duration(time.Millisecond)}
	c.left = 1024 // warm the freelist so the measurement sees steady state
	s.AfterFunc(c.period, benchChurnFire, c)
	s.Run()
	before := s.Processed
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	c.left = n
	s.AfterFunc(c.period, benchChurnFire, c)
	s.Run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	events = s.Processed - before
	nsPerEvent = float64(elapsed.Nanoseconds()) / float64(events)
	allocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / float64(events)
	return nsPerEvent, allocsPerEvent, events
}

func schedulerMicrobench(quick bool) schedulerReport {
	n := 200000
	if quick {
		n = 40000
	}
	ns, allocs, events := measureChurn(sim.NewScheduler(1), n)
	refNs, refAllocs, _ := measureChurn(sim.NewReferenceScheduler(1), n)
	// The fast path measures 0 allocs/event; floor the denominator at one
	// allocation across the whole run so the reduction stays finite.
	floor := allocs
	if floor < 1/float64(events) {
		floor = 1 / float64(events)
	}
	return schedulerReport{
		Events:            events,
		NsPerEvent:        ns,
		AllocsPerEvent:    allocs,
		EventsPerSec:      1e9 / ns,
		RefNsPerEvent:     refNs,
		RefAllocsPerEvent: refAllocs,
		AllocReduction:    refAllocs / floor,
		EventSpeedup:      refNs / ns,
	}
}

// packetPathReport times one packet's end-to-end traversal of a 3-node
// chain (send, flat-FIB route, transit forward, deliver, release) both
// ways: the pooled datapath versus the seed allocate-per-packet path kept
// in-tree as the reference. Tracking both keeps the zero-allocation claim
// honest across PRs.
type packetPathReport struct {
	Packets            uint64  `json:"packets"`
	NsPerPacket        float64 `json:"ns_per_packet"`
	AllocsPerPacket    float64 `json:"allocs_per_packet"`
	PacketsPerSec      float64 `json:"packets_per_sec"`
	RefNsPerPacket     float64 `json:"ref_ns_per_packet"`
	RefAllocsPerPacket float64 `json:"ref_allocs_per_packet"`
	AllocReduction     float64 `json:"alloc_reduction"`
	PacketSpeedup      float64 `json:"packet_speedup"`
	PoolHitRate        float64 `json:"pool_hit_rate"`
}

// measurePacketPath runs n UDP packets through a 3-node chain after a
// warmup that fills the packet freelist and link rings, returning ns/packet,
// allocs/packet (cumulative-malloc delta, so the pooled path genuinely
// reads zero), and the packet-pool hit rate.
func measurePacketPath(reference bool, n int) (nsPerPacket, allocsPerPacket, hitRate float64) {
	s := sim.NewScheduler(1)
	nw := netem.New(s)
	nw.SetReference(reference)
	a := nw.NewNode("a", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", netem.MustParseAddr("10.0.0.2"))
	c := nw.NewNode("c", netem.MustParseAddr("10.0.0.3"))
	ab, ba := nw.Connect(a, b, netem.LinkConfig{Delay: netem.ConstantDelay(time.Millisecond)})
	bc, _ := nw.Connect(b, c, netem.LinkConfig{Delay: netem.ConstantDelay(time.Millisecond)})
	a.SetDefaultRoute(ab)
	b.AddRoute(c.Addr(), bc)
	b.AddRoute(a.Addr(), ba)
	c.Bind(netem.ProtoUDP, 9, func(*netem.Packet) {})
	send := func() {
		pkt := nw.NewPacket()
		pkt.Dst = c.Addr()
		pkt.DstPort = 9
		pkt.Proto = netem.ProtoUDP
		pkt.Size = 100
		a.Send(pkt)
		s.Run()
	}
	for i := 0; i < 1024; i++ {
		send()
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < n; i++ {
		send()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	nsPerPacket = float64(elapsed.Nanoseconds()) / float64(n)
	allocsPerPacket = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return nsPerPacket, allocsPerPacket, nw.PoolStats().HitRate()
}

func packetPathMicrobench(quick bool) packetPathReport {
	n := 200000
	if quick {
		n = 40000
	}
	ns, allocs, hit := measurePacketPath(false, n)
	refNs, refAllocs, _ := measurePacketPath(true, n)
	// As in the scheduler section: the fast path measures 0 allocs/packet,
	// so floor the denominator at one allocation across the whole run.
	floor := allocs
	if floor < 1/float64(n) {
		floor = 1 / float64(n)
	}
	return packetPathReport{
		Packets:            uint64(n),
		NsPerPacket:        ns,
		AllocsPerPacket:    allocs,
		PacketsPerSec:      1e9 / ns,
		RefNsPerPacket:     refNs,
		RefAllocsPerPacket: refAllocs,
		AllocReduction:     refAllocs / floor,
		PacketSpeedup:      refNs / ns,
		PoolHitRate:        hit,
	}
}

// validateBenchJSON checks that a bench.json written by this (or an
// earlier) binary conforms to the starlink-bench/v1 schema, so ci.sh can
// fail fast when a section goes missing or a timing degenerates to zero.
func validateBenchJSON(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep benchReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return err
	}
	if rep.Schema != benchSchema {
		return fmt.Errorf("schema = %q, want %q", rep.Schema, benchSchema)
	}
	if _, err := time.Parse(time.RFC3339, rep.Date); err != nil {
		return fmt.Errorf("date: %w", err)
	}
	if rep.GoVersion == "" {
		return fmt.Errorf("go_version missing")
	}
	if rep.WallSeconds <= 0 {
		return fmt.Errorf("wall_seconds = %v, want > 0", rep.WallSeconds)
	}
	if rep.Cores <= 0 || rep.GoMaxProcs <= 0 {
		return fmt.Errorf("cores = %d, gomaxprocs = %d, want both > 0", rep.Cores, rep.GoMaxProcs)
	}
	if rep.SpeedupGatesArmed != (rep.GoMaxProcs >= 8) {
		return fmt.Errorf("speedup_gates_armed = %v with gomaxprocs = %d; the flag must record whether the parallelism gates could run",
			rep.SpeedupGatesArmed, rep.GoMaxProcs)
	}
	for _, key := range []string{
		"latency_samples", "loss_h3_down_pct", "loss_msg_down_pct",
		"speedtest_starlink_down_p50_mbps", "h3_starlink_down_p50_mbps",
	} {
		if _, ok := rep.Metrics[key]; !ok {
			return fmt.Errorf("metrics[%q] missing", key)
		}
	}
	// The obs section is optional (plain runs may skip collection), but
	// when present it must carry the campaign's footprint: a run that
	// sent no packets through an instrumented link produced nothing.
	if rep.Obs != nil {
		for _, key := range []string{"net.link.sent", "net.link.delivered", "probe.echo_sent"} {
			if rep.Obs[key] <= 0 {
				return fmt.Errorf("obs[%q] = %v, want > 0", key, rep.Obs[key])
			}
		}
	}
	g := rep.Geometry
	if g.FastNsPerEpoch <= 0 || g.NaiveNsPerEpoch <= 0 || g.DelayNsPerCall <= 0 || g.ISLPathNsPerCall <= 0 {
		return fmt.Errorf("geometry section incomplete: %+v", g)
	}
	if g.ISLPathMemoNsPerCall <= 0 || g.ISLPathMemoNsPerCall >= g.ISLPathNsPerCall {
		return fmt.Errorf("geometry isl_path_memo_ns_per_call = %v, want in (0, %v): memo should beat the full search",
			g.ISLPathMemoNsPerCall, g.ISLPathNsPerCall)
	}
	s := rep.Scheduler
	if s.Events == 0 || s.NsPerEvent <= 0 || s.EventsPerSec <= 0 || s.RefNsPerEvent <= 0 || s.RefAllocsPerEvent <= 0 {
		return fmt.Errorf("scheduler section incomplete: %+v", s)
	}
	if s.AllocsPerEvent < 0 || s.AllocsPerEvent >= s.RefAllocsPerEvent {
		return fmt.Errorf("scheduler allocs_per_event = %v, reference = %v; pooled path should allocate less",
			s.AllocsPerEvent, s.RefAllocsPerEvent)
	}
	if s.AllocReduction < 5 {
		return fmt.Errorf("scheduler alloc_reduction = %.2f, want >= 5", s.AllocReduction)
	}
	p := rep.PacketPath
	if p.Packets == 0 || p.NsPerPacket <= 0 || p.PacketsPerSec <= 0 || p.RefNsPerPacket <= 0 || p.RefAllocsPerPacket <= 0 {
		return fmt.Errorf("packet_path section incomplete: %+v", p)
	}
	if p.AllocsPerPacket < 0 || p.AllocsPerPacket >= p.RefAllocsPerPacket {
		return fmt.Errorf("packet_path allocs_per_packet = %v, reference = %v; pooled path should allocate less",
			p.AllocsPerPacket, p.RefAllocsPerPacket)
	}
	if p.PoolHitRate <= 0 || p.PoolHitRate > 1 {
		return fmt.Errorf("packet_path pool_hit_rate = %v, want in (0, 1]", p.PoolHitRate)
	}
	if err := validateFleetReport(rep.Fleet); err != nil {
		return err
	}
	if err := validatePdesReport(rep.Pdes); err != nil {
		return err
	}
	if err := validateFidelityReport(rep.Fidelity); err != nil {
		return err
	}
	return validateTransportReport(rep.Transport)
}
