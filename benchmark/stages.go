package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/web"
	"starlinkperf/internal/wehe"
)

// env is what one iteration runs under. Only the worker count and the
// observability collector reach the program (next to the generated sizes);
// everything else is the benchmark's own bookkeeping.
type env struct {
	workers   int            // pinned per workload, never GOMAXPROCS-derived
	collector *obs.Collector // nil: observability off (every end-to-end run)
	rec       *spanRecorder  // nil: no spans (every end-to-end run)
	detail    bool           // read the layers' exported counters after each stage
}

// options are the only core.Options the benchmark sets: zero values
// beyond seed, worker counts and the collector.
func (e *env) options() core.Options {
	return core.Options{Seed: worldSeed, Workers: e.workers, ScenarioWorkers: e.workers, Obs: e.collector}
}

// stageKind names the transport a stage's packets belong to, so packets
// originated in a stage can be counted against the right layer.
type stageKind int

const (
	kindOther stageKind = iota
	kindQUIC
	kindTCP
	kindProbe
)

// stage is one campaign job: a configuration plus the call into
// core.Testbed that runs it. The same stage runs alone in a
// layer-isolating workload and as one of the 14 jobs of paper_report.
type stage struct {
	name string // job name (seeds the job's testbed through core.RunSweep)
	key  string // ledger line core.stage.<key>_s
	kind stageKind
	ops  int // operations the stage attempts
	cfg  core.Config
	run  func(tb *core.Testbed, o *stageOut)
}

// stageOut is what one stage produced: operation accounting, the text its
// results hash to, the paper-fidelity values it can supply, and (traced
// runs) the counters the layers export.
type stageOut struct {
	name, key string
	kind      stageKind
	attempted int
	ok        int
	why       []string
	dig       bytes.Buffer
	paper     map[string]float64

	wall time.Duration
	// Allocation deltas are process-wide, so they are attributed to a
	// stage only when it ran alone (one worker).
	mallocs, allocBytes uint64

	events, skipped uint64
	pool            netem.PoolStats
	link            netem.LinkStats // summed over the testbed's links; QueuedPeak is the maximum
	payloadBytes    uint64
	messages        int
	visits          int
	failedVisits    int
	conns           int
	replays         int
	probes          int
	windows         uint64
}

func (o *stageOut) printf(format string, args ...any) { fmt.Fprintf(&o.dig, format, args...) }

func (o *stageOut) fail(format string, args ...any) {
	if len(o.why) < 4 {
		o.why = append(o.why, o.name+": "+fmt.Sprintf(format, args...))
	}
}

func (o *stageOut) setPaper(name string, v float64) {
	if o.paper == nil {
		o.paper = map[string]float64{}
	}
	o.paper[name] = v
}

func (o *stageOut) failed() int { return o.attempted - min(o.ok, o.attempted) }

// within reports whether v lies in the sanity band [lo, hi]. The bands
// are generous: they catch a broken run, not a calibration drift, which
// the paper.* values expose without gating.
func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

// runStage executes one stage on its testbed under a span and a recover
// (see guarded), so that a panic deep in a layer fails the stage's
// operations instead of the process.
func runStage(e *env, st *stage, tb *core.Testbed, o *stageOut, parent, iter int) {
	o.name, o.key, o.kind, o.attempted = st.name, st.key, st.kind, st.ops
	var before, after runtime.MemStats
	alone := e.detail && e.workers == 1
	if alone {
		runtime.ReadMemStats(&before)
	}
	guarded(e, o, "stage:"+st.name, parent, iter, func() { st.run(tb, o) })
	if alone {
		runtime.ReadMemStats(&after)
		o.mallocs, o.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	if e.detail {
		readTestbedCounters(tb, o)
	}
}

// readTestbedCounters copies the counters the scheduler and the network
// already export.
func readTestbedCounters(tb *core.Testbed, o *stageOut) {
	o.events, o.skipped = tb.Sched.Processed, tb.Sched.Skipped
	o.pool = tb.Net.PoolStats()
	for _, l := range tb.Net.Links() {
		s := l.Stats()
		o.link.Sent += s.Sent
		o.link.Delivered += s.Delivered
		o.link.DropsQueue += s.DropsQueue
		o.link.DropsLoss += s.DropsLoss
		o.link.DropsDown += s.DropsDown
		o.link.QueuedPeak = max(o.link.QueuedPeak, s.QueuedPeak)
	}
}

// campaign holds the typed results of one iteration's stages, which the
// figure builders consume.
type campaign struct {
	lat        *core.LatencyData
	latAnchors []core.Anchor
	latSites   int
	h3d, h3u   *core.H3Campaign
	h3w        *core.H3Campaign
	md, mu     *core.MsgCampaign
	sl, sc     []measure.SpeedtestResult
	webSL      []web.VisitResult
	webSC      []web.VisitResult
	webWD      []web.VisitResult
	mbSL, mbSC []core.MiddleboxAudit
	wehe       []wehe.Detection
}

// campaignSizes fixes every campaign dimension of one workload.
type campaignSizes struct {
	latDur, latInterval time.Duration
	h3Down, h3Up        int
	h3Wired             int
	h3Size              int
	msgSessions         int
	msgDur              time.Duration
	stStarlink          int
	stSatCom            int
	stWindow            time.Duration // speedtest measuring window (Ookla default 10 s)
	weheRepeats         int
	webVisits           int
	audits              int
}

// weheServices is the size of the Wehe suite (the services are fixed; the
// RNG only draws their packet traces).
var weheServices = len(wehe.DefaultServices(sim.NewRNG(1)))

// stageNames lists the 14 campaign jobs in `starlink-bench -quick` order.
var stageNames = []string{
	"latency", "h3-down", "h3-up", "messages-down", "messages-up",
	"speedtest-starlink", "speedtest-satcom", "web-starlink", "web-satcom", "web-wired",
	"middlebox-starlink", "middlebox-satcom", "wehe", "wired-baseline",
}

// buildStages returns the named stages sized by sz, writing their typed
// results into c.
func buildStages(sz campaignSizes, c *campaign, names []string) []stage {
	cfg := core.DefaultConfig()
	cfg.Seed = worldSeed
	if sz.stWindow > 0 {
		// The Ookla-like defaults with the generated measuring window.
		cfg.Speedtest = measure.DefaultSpeedtestConfig()
		cfg.Speedtest.Window = sz.stWindow
	}
	// The latency campaign carries the paper's scenario events, as in
	// cmd/starlink-bench.
	latCfg := cfg
	latCfg.InitialShellFraction = 0.86
	latCfg.FleetGrowthAt = 53 * 24 * time.Hour
	latCfg.Load = core.LoadEpisode{Start: 125 * 24 * time.Hour, End: 139 * 24 * time.Hour, ExtraOneWay: 4 * time.Millisecond}

	h3 := func(name, key string, n int, download, wired bool, dst **core.H3Campaign, lossName, rateName string) stage {
		return stage{name: name, key: key, kind: kindQUIC, ops: n, cfg: cfg, run: func(tb *core.Testbed, o *stageOut) {
			var camp *core.H3Campaign
			if wired {
				camp = tb.RunH3CampaignFrom(tb.PCWired, n, sz.h3Size, true, 5*time.Second, tb.QUICConf)
			} else {
				camp = tb.RunH3Campaign(n, sz.h3Size, download, 20*time.Second)
			}
			*dst = camp
			checkH3(o, camp, n)
			if lossName != "" {
				o.setPaper(lossName, 100*camp.LossRatio())
			}
			if rateName != "" {
				o.setPaper(rateName, stats.Median(camp.Goodputs()))
			}
		}}
	}
	msg := func(name, key string, download bool, dst **core.MsgCampaign) stage {
		n := sz.msgSessions
		return stage{name: name, key: key, kind: kindQUIC, ops: n, cfg: cfg, run: func(tb *core.Testbed, o *stageOut) {
			camp := tb.RunMessagesCampaign(n, sz.msgDur, download)
			*dst = camp
			o.messages = n * 25 * int(sz.msgDur/time.Second)
			s := stats.Summarize(camp.RTTsMs)
			o.printf("rtts=%d p50=%v mean=%v loss=%v bursts=%v durs=%v\n",
				s.N, s.P50, s.Mean, camp.LossRatio(), camp.BurstLengths(), camp.EventDurations())
			switch {
			case s.N == 0:
				o.fail("no RTT samples from %d sessions", n)
			case !within(camp.LossRatio(), 0, 0.50):
				o.fail("message loss %.4f outside 0–50 %%", camp.LossRatio())
			case !within(s.P50, 10, 2000):
				o.fail("message RTT p50 %.1f ms outside 10–2000 ms", s.P50)
			default:
				o.ok = n
			}
		}}
	}
	speedtest := func(name, key string, t core.Tech, n int, dst *[]measure.SpeedtestResult) stage {
		return stage{name: name, key: key, kind: kindTCP, ops: n, cfg: cfg, run: func(tb *core.Testbed, o *stageOut) {
			rs := tb.RunSpeedtestCampaign(t, n, 30*time.Minute)
			*dst = rs
			var down, up []float64
			for _, r := range rs {
				o.printf("%+v\n", r)
				if r.DownloadMbps > 0 && r.UploadMbps > 0 && r.PingRTT > 0 {
					o.ok++
					down, up = append(down, r.DownloadMbps), append(up, r.UploadMbps)
				} else {
					o.fail("speedtest without throughput: %+v", r)
				}
			}
			if len(rs) < n {
				o.fail("%d of %d speedtests missing", n-len(rs), n)
			}
			if t == core.TechStarlink && len(down) > 0 {
				o.setPaper("paper.speedtest_down_p50_mbps", stats.Median(down))
				o.setPaper("paper.speedtest_up_p50_mbps", stats.Median(up))
			}
		}}
	}
	webStage := func(name, key string, t core.Tech, dst *[]web.VisitResult) stage {
		n := sz.webVisits
		return stage{name: name, key: key, kind: kindTCP, ops: n, cfg: cfg, run: func(tb *core.Testbed, o *stageOut) {
			vs := tb.RunWebCampaign(t, n, 2*time.Second)
			*dst = vs
			var onload []float64
			for _, v := range vs {
				o.printf("site=%d onload=%v si=%v conns=%d setup=%v failed=%v\n",
					v.Site.Rank, v.OnLoad, v.SpeedIndex, v.Connections, v.MeanSetup(), v.Failed)
				o.visits++
				o.conns += v.Connections
				if v.Failed || v.OnLoad <= 0 {
					o.failedVisits++
					o.fail("visit to site %d failed", v.Site.Rank)
					continue
				}
				o.ok++
				onload = append(onload, v.OnLoad.Seconds())
			}
			if len(vs) < n {
				o.fail("%d of %d visits missing", n-len(vs), n)
			}
			if t == core.TechStarlink && len(onload) > 0 {
				o.setPaper("paper.web_onload_starlink_p50_s", stats.Median(onload))
			}
		}}
	}
	middlebox := func(name string, t core.Tech, dst *[]core.MiddleboxAudit) stage {
		n := sz.audits
		return stage{name: name, key: "middlebox", kind: kindProbe, ops: n, cfg: cfg, run: func(tb *core.Testbed, o *stageOut) {
			var text strings.Builder
			for i := 0; i < n; i++ {
				a := tb.RunMiddleboxAudit(t)
				*dst = append(*dst, a)
				core.RenderMiddleboxAudit(&text, t.String(), a)
				if len(a.Hops) > 0 {
					o.ok++
				} else {
					o.fail("audit %d saw no hops", i)
				}
			}
			o.printf("%s", text.String())
		}}
	}

	latency := func() stage {
		return stage{name: "latency", key: "latency", kind: kindProbe, cfg: latCfg,
			ops: int((sz.latDur + sz.latInterval - 1) / sz.latInterval),
			run: func(tb *core.Testbed, o *stageOut) {
				d := tb.RunLatencyCampaign(sz.latDur, sz.latInterval)
				c.lat, c.latAnchors, c.latSites = d, tb.Anchors, len(tb.Sites)
				var text strings.Builder
				core.RenderFigure1(&text, core.Figure1(d, tb.Anchors))
				core.RenderFigure2(&text, core.Figure2(d))
				o.printf("sent=%d lost=%d\n%s", d.Sent, d.Lost, text.String())
				o.probes = d.Sent
				rounds := d.Sent / (3 * len(tb.Anchors))
				p50 := stats.Median(d.EuropeanSeries().Values())
				o.setPaper("paper.rtt_idle_p50_ms", p50)
				switch {
				case !within(p50, 20, 80):
					o.fail("European idle RTT p50 %.1f ms outside 20–80 ms", p50)
				case d.Lost*5 > d.Sent:
					o.fail("%d of %d pings lost", d.Lost, d.Sent)
				default:
					o.ok = rounds
				}
			}}
	}
	weheStage := func() stage {
		return stage{name: "wehe", key: "wehe", kind: kindTCP, cfg: cfg, ops: 2 * sz.weheRepeats * weheServices,
			run: func(tb *core.Testbed, o *stageOut) {
				ds := tb.RunWeheAudit(core.TechStarlink, sz.weheRepeats)
				c.wehe = ds
				for _, d := range ds {
					o.printf("%+v\n", d)
					o.replays += 2 * sz.weheRepeats
					if d.OriginalMbps > 0 && d.RandomMbps > 0 {
						o.ok += 2 * sz.weheRepeats
					} else {
						o.fail("replay of %s moved no data", d.Service)
					}
				}
				if len(ds) < weheServices {
					o.fail("%d of %d services missing", weheServices-len(ds), weheServices)
				}
			}}
	}
	// Built on demand: a workload sizes only the jobs it names.
	build := func(name string) stage {
		switch name {
		case "latency":
			return latency()
		case "h3-down":
			return h3(name, "h3_down", sz.h3Down, true, false, &c.h3d, "paper.h3_loss_down_pct", "paper.h3_down_p50_mbps")
		case "h3-up":
			return h3(name, "h3_up", sz.h3Up, false, false, &c.h3u, "paper.h3_loss_up_pct", "")
		case "wired-baseline":
			return h3(name, "h3_wired", sz.h3Wired, true, true, &c.h3w, "", "")
		case "messages-down":
			return msg(name, "msg_down", true, &c.md)
		case "messages-up":
			return msg(name, "msg_up", false, &c.mu)
		case "speedtest-starlink":
			return speedtest(name, "speedtest_starlink", core.TechStarlink, sz.stStarlink, &c.sl)
		case "speedtest-satcom":
			return speedtest(name, "speedtest_satcom", core.TechSatCom, sz.stSatCom, &c.sc)
		case "web-starlink":
			return webStage(name, "web_starlink", core.TechStarlink, &c.webSL)
		case "web-satcom":
			return webStage(name, "web_satcom", core.TechSatCom, &c.webSC)
		case "web-wired":
			return webStage(name, "web_wired", core.TechWired, &c.webWD)
		case "middlebox-starlink":
			return middlebox(name, core.TechStarlink, &c.mbSL)
		case "middlebox-satcom":
			return middlebox(name, core.TechSatCom, &c.mbSC)
		case "wehe":
			return weheStage()
		}
		panic("benchmark: unknown campaign job " + name)
	}
	out := make([]stage, len(names))
	for i, n := range names {
		out[i] = build(n)
	}
	return out
}

// checkH3 accounts one bulk campaign: a transfer is an operation and it
// fails when it is missing, incomplete, moved nothing or lost an
// implausible share of its packets.
func checkH3(o *stageOut, camp *core.H3Campaign, n int) {
	for i, r := range camp.Records {
		res := r.Result
		o.printf("bytes=%d start=%d end=%d goodput=%v rtts=%d sent=%d recv=%d lost=%d events=%d\n",
			res.Bytes, res.Start, res.End, res.GoodputMbps, len(res.RTTs.Milliseconds()),
			r.Loss.PacketsSent, r.Loss.PacketsReceived, r.Loss.PacketsLost, len(r.Loss.Events))
		o.payloadBytes += res.Bytes
		switch {
		case !res.Completed:
			o.fail("transfer %d did not complete", i)
		case res.GoodputMbps <= 0:
			o.fail("transfer %d has no goodput", i)
		case !within(r.Loss.LossRate(), 0, 0.50):
			o.fail("transfer %d lost %.4f of its packets", i, r.Loss.LossRate())
		default:
			o.ok++
		}
	}
	if len(camp.Records) < n {
		o.fail("%d of %d transfers missing", n-len(camp.Records), n)
	}
}

// runSweep runs the stages as core.SweepJobs through core.RunSweep on the
// environment's pinned worker count and returns their outputs in job
// order, which keeps the digest independent of completion order.
func runSweep(e *env, stages []stage, parent, iter int) []*stageOut {
	outs := make([]*stageOut, len(stages))
	jobs := make([]core.SweepJob, len(stages))
	for i := range stages {
		st, o := &stages[i], &stageOut{}
		outs[i] = o
		jobs[i] = core.SweepJob{Name: st.name, Cfg: st.cfg, Run: func(tb *core.Testbed) any {
			runStage(e, st, tb, o, parent, iter)
			return nil
		}}
	}
	core.RunSweep(jobs, e.options())
	return outs
}

// renderFigures builds every table and figure cmd/starlink-bench prints
// from the campaign results; the text is part of the digest.
func renderFigures(c *campaign, sz campaignSizes) string {
	var out strings.Builder
	core.RenderTable1(&out, sz.latDur, sz.latDur, sz.latDur, sz.latDur, len(c.latAnchors), c.latSites)
	core.RenderFigure1(&out, core.Figure1(c.lat, c.latAnchors))
	bins := core.Figure2(c.lat)
	step := max(1, len(bins)/24)
	var shown []core.Figure2Bin
	for i := 0; i < len(bins); i += step {
		shown = append(shown, bins[i])
	}
	core.RenderFigure2(&out, shown)
	core.RenderFigure3(&out, core.MakeFigure3(c.h3d, c.h3u))
	core.RenderTable2(&out, core.MakeTable2(c.h3d, c.h3u, c.md, c.mu))
	core.RenderFigure4(&out, core.MakeFigure4("H3 transfers", c.h3d.BurstLengths(), c.h3u.BurstLengths()))
	core.RenderFigure4(&out, core.MakeFigure4("messaging transfers", c.md.BurstLengths(), c.mu.BurstLengths()))
	if d := c.h3d.EventDurations(); len(d) > 0 {
		core.LossDurations(&out, "H3 downloads", d)
	}
	if d := c.md.EventDurations(); len(d) > 0 {
		core.LossDurations(&out, "message downloads", d)
	}
	core.RenderFigure5(&out, core.MakeFigure5(c.sl, c.sc, c.h3d, c.h3u))
	core.RenderFigure6(&out, core.MakeFigure6(map[string][]web.VisitResult{
		"starlink": c.webSL, "satcom": c.webSC, "wired": c.webWD,
	}))
	for _, a := range c.mbSL {
		core.RenderMiddleboxAudit(&out, "starlink", a)
	}
	for _, a := range c.mbSC {
		core.RenderMiddleboxAudit(&out, "satcom", a)
	}
	core.RenderWehe(&out, "starlink", c.wehe)
	var sent, lost uint64
	for _, r := range c.h3w.Records {
		sent, lost = sent+r.Loss.PacketsSent, lost+r.Loss.PacketsLost
	}
	fmt.Fprintf(&out, "Wired-baseline H3 downloads: %d packets sent, %d lost\n", sent, lost)
	return out.String()
}
