package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"starlinkperf/internal/fleet"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/web"
	"starlinkperf/internal/wehe"
)

// This file is the paper's evaluation as one value: its 14 campaigns, the
// fleet scenario and the order Tables 1–2 and Figures 1–6 print in.
// benchmark/stages.go keeps the last copy of its job list.

// Sizes fixes every campaign dimension of one report.
type Sizes struct {
	LatencySpan, LatencyInterval       time.Duration
	H3Down, H3Up, H3Size               int // transfers each way, bytes each
	MsgSessions                        int // sessions each way
	MsgDur                             time.Duration
	SpeedtestStarlink, SpeedtestSatCom int
	WebVisits, WeheRepeats, Baseline   int // visits per vantage point, Wehe repeats, wired H3 downloads
	FleetTerminals                     int
	FleetSpan                          time.Duration
}

// QuickSizes is the smoke-sized report CI and `starlink-bench -quick` run.
func QuickSizes() Sizes {
	return Sizes{
		LatencySpan: 6 * time.Hour, LatencyInterval: 30 * time.Minute,
		H3Down: 1, H3Up: 1, H3Size: 10 << 20,
		MsgSessions: 1, MsgDur: time.Minute,
		SpeedtestStarlink: 2, SpeedtestSatCom: 2,
		WebVisits: 4, WeheRepeats: 1, Baseline: 1,
		FleetTerminals: 10000, FleetSpan: 2 * time.Hour,
	}
}

// ScaleSizes lengthens the campaigns linearly with scale (>= 1) towards
// the paper's sample sizes, capped at its 150-day latency campaign, 10
// Wehe repeats and a one-day fleet horizon.
func ScaleSizes(scale int) Sizes {
	latInterval := 30 * time.Minute
	if scale >= 4 {
		latInterval = 5 * time.Minute
	}
	return Sizes{
		LatencySpan: time.Duration(min(150, 10*scale)) * 24 * time.Hour, LatencyInterval: latInterval,
		H3Down: 6 * scale, H3Up: 4 * scale, H3Size: 100 << 20,
		MsgSessions: 4 * scale, MsgDur: 2 * time.Minute,
		SpeedtestStarlink: 16 * scale, SpeedtestSatCom: 8 * scale,
		WebVisits: 40 * scale, WeheRepeats: min(10, 2*scale), Baseline: 4,
		FleetTerminals: 20000, FleetSpan: time.Duration(min(24, 6*scale)) * time.Hour,
	}
}

// PaperScenario adds the events of the paper's five-month campaign to
// cfg: the constellation growing from 86 % on day 53, and the late-April
// load episode.
func PaperScenario(cfg Config) Config {
	cfg.InitialShellFraction = 0.86
	cfg.FleetGrowthAt = 53 * 24 * time.Hour
	cfg.Load = LoadEpisode{Start: 125 * 24 * time.Hour, End: 139 * 24 * time.Hour, ExtraOneWay: 4 * time.Millisecond}
	return cfg
}

// Report is what one run of the paper's evaluation measured: one field
// per campaign and one for the fleet scenario.
type Report struct {
	Sizes                              Sizes
	Latency                            *LatencyData // under PaperScenario
	Sites                              int          // the web corpus, for Table 1
	H3Down, H3Up                       *H3Campaign
	MsgDown, MsgUp                     *MsgCampaign
	SpeedtestStarlink, SpeedtestSatCom []measure.SpeedtestResult
	WebStarlink, WebSatCom, WebWired   []web.VisitResult
	MiddleboxStarlink, MiddleboxSatCom MiddleboxAudit
	Wehe                               []wehe.Detection
	Baseline                           *H3Campaign // wired H3 downloads
	Fleet                              *fleet.Result

	// Engine telemetry, never rendered: each sweep job's scheduler and
	// wall time in job order, the sweep's makespan, and the wall of the
	// fleet scenario that runs after it.
	Jobs      []JobStat
	Makespan  time.Duration
	FleetWall time.Duration
}

// JobStat is how many events one sweep job's scheduler ran, how deep its
// queue got and how long the job took.
type JobStat struct {
	Name      string
	Events    uint64
	QueuePeak int
	Wall      time.Duration
}

// RunReport runs the paper's evaluation at sizes sz. The 14 campaigns are
// independent sweep jobs, each on its own testbed seeded per job, so they
// fan out over opts.Workers and the report is worker-count invariant; the
// fleet scenario follows on the same options. When opts.Obs carries a
// collector, every job and the fleet ("fleet/0000") register with it.
func RunReport(cfg Config, sz Sizes, opts Options) *Report {
	r := &Report{Sizes: sz}
	job := func(name string, cfg Config, run func(tb *Testbed)) SweepJob {
		i := len(r.Jobs)
		r.Jobs = append(r.Jobs, JobStat{Name: name})
		return SweepJob{Name: name, Cfg: cfg, Run: func(tb *Testbed) any {
			start := time.Now()
			run(tb)
			r.Jobs[i] = JobStat{name, tb.Sched.Processed, tb.Sched.QueuePeak(), time.Since(start)}
			return nil
		}}
	}
	jobs := []SweepJob{
		job("latency", PaperScenario(cfg), func(tb *Testbed) {
			r.Latency = tb.RunLatencyCampaign(sz.LatencySpan, sz.LatencyInterval)
			r.Sites = len(tb.Sites)
		}),
		job("h3-down", cfg, func(tb *Testbed) { r.H3Down = tb.RunH3Campaign(sz.H3Down, sz.H3Size, true, 20*time.Second) }),
		job("h3-up", cfg, func(tb *Testbed) { r.H3Up = tb.RunH3Campaign(sz.H3Up, sz.H3Size, false, 20*time.Second) }),
		job("messages-down", cfg, func(tb *Testbed) { r.MsgDown = tb.RunMessagesCampaign(sz.MsgSessions, sz.MsgDur, true) }),
		job("messages-up", cfg, func(tb *Testbed) { r.MsgUp = tb.RunMessagesCampaign(sz.MsgSessions, sz.MsgDur, false) }),
		job("speedtest-starlink", cfg, func(tb *Testbed) {
			r.SpeedtestStarlink = tb.RunSpeedtestCampaign(TechStarlink, sz.SpeedtestStarlink, 30*time.Minute)
		}),
		job("speedtest-satcom", cfg, func(tb *Testbed) {
			r.SpeedtestSatCom = tb.RunSpeedtestCampaign(TechSatCom, sz.SpeedtestSatCom, 30*time.Minute)
		}),
		job("web-starlink", cfg, func(tb *Testbed) { r.WebStarlink = tb.RunWebCampaign(TechStarlink, sz.WebVisits, 2*time.Second) }),
		job("web-satcom", cfg, func(tb *Testbed) { r.WebSatCom = tb.RunWebCampaign(TechSatCom, sz.WebVisits, 2*time.Second) }),
		job("web-wired", cfg, func(tb *Testbed) { r.WebWired = tb.RunWebCampaign(TechWired, sz.WebVisits, 2*time.Second) }),
		job("middlebox-starlink", cfg, func(tb *Testbed) { r.MiddleboxStarlink = tb.RunMiddleboxAudit(TechStarlink) }),
		job("middlebox-satcom", cfg, func(tb *Testbed) { r.MiddleboxSatCom = tb.RunMiddleboxAudit(TechSatCom) }),
		job("wehe", cfg, func(tb *Testbed) { r.Wehe = tb.RunWeheAudit(TechStarlink, sz.WeheRepeats) }),
		job("wired-baseline", cfg, func(tb *Testbed) {
			r.Baseline = tb.RunH3CampaignFrom(tb.PCWired, sz.Baseline, sz.H3Size, true, 5*time.Second, tb.QUICConf)
		}),
	}
	start := time.Now()
	RunSweep(jobs, opts)
	r.Makespan = time.Since(start)

	start = time.Now()
	r.Fleet = RunFleetScenario(fleet.Config{Terminals: sz.FleetTerminals, Horizon: sz.FleetSpan}, opts)
	r.FleetWall = time.Since(start)
	return r
}

// Render writes every table and figure of the report in the paper's
// order, Figure 2 showing every (n/24)-th of its n bins.
func (r *Report) Render(w io.Writer) error {
	var out strings.Builder
	span := r.Sizes.LatencySpan
	RenderTable1(&out, span, span, span, span, len(r.Latency.Anchors), r.Sites)
	out.WriteString("\n")
	RenderFigure1(&out, Figure1(r.Latency, r.Latency.Anchors))
	out.WriteString("\n")
	bins := Figure2(r.Latency)
	step := max(1, len(bins)/24)
	var shown []Figure2Bin
	for i := 0; i < len(bins); i += step {
		shown = append(shown, bins[i])
	}
	RenderFigure2(&out, shown)
	out.WriteString("\n")

	RenderFigure3(&out, MakeFigure3(r.H3Down, r.H3Up))
	out.WriteString("\n")
	RenderTable2(&out, MakeTable2(r.H3Down, r.H3Up, r.MsgDown, r.MsgUp))
	out.WriteString("\n")
	RenderFigure4(&out, MakeFigure4("H3 transfers", r.H3Down.BurstLengths(), r.H3Up.BurstLengths()))
	RenderFigure4(&out, MakeFigure4("messaging transfers", r.MsgDown.BurstLengths(), r.MsgUp.BurstLengths()))
	LossDurations(&out, "H3 downloads", r.H3Down.EventDurations())
	LossDurations(&out, "message downloads", r.MsgDown.EventDurations())
	out.WriteString("\n")

	RenderFigure5(&out, MakeFigure5(r.SpeedtestStarlink, r.SpeedtestSatCom, r.H3Down, r.H3Up))
	out.WriteString("\n")
	RenderFigure6(&out, MakeFigure6(map[string][]web.VisitResult{"starlink": r.WebStarlink, "satcom": r.WebSatCom, "wired": r.WebWired}))
	out.WriteString("\n")

	RenderMiddleboxAudit(&out, "starlink", r.MiddleboxStarlink)
	RenderMiddleboxAudit(&out, "satcom", r.MiddleboxSatCom)
	out.WriteString("\n")
	RenderWehe(&out, "starlink", r.Wehe)
	out.WriteString("\n")
	RenderFleet(&out, r.Fleet)

	var sent, lost uint64
	for _, rec := range r.Baseline.Records {
		sent += rec.Loss.PacketsSent
		lost += rec.Loss.PacketsLost
	}
	fmt.Fprintf(&out, "\nWired-baseline H3 downloads: %d packets sent, %d lost (paper: 10 of 5.8M)\n", sent, lost)
	_, err := io.WriteString(w, out.String())
	return err
}
