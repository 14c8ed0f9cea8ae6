package core

import (
	"fmt"
	"sort"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/trace"
	"starlinkperf/internal/web"
	"starlinkperf/internal/wehe"
)

// LatencyData is the output of the anchor ping campaign.
type LatencyData struct {
	// PerAnchor maps anchor name to its RTT series (milliseconds).
	PerAnchor map[string]*stats.Series
	// Regions maps anchor name to region.
	Regions map[string]string
	// Anchors lists the anchors in testbed order — Figure 1's row order —
	// by name and region only (Node is nil), so a merged campaign needs no
	// testbed to render.
	Anchors []Anchor
	// Sent and Lost count probes.
	Sent, Lost int
}

// EuropeanSeries merges the BE/NL/DE anchors into one series (Figure 2's
// input). The merge iterates anchors in sorted name order — ranging the
// map directly made the sample order (and any export or tie-sensitive
// consumer downstream) vary run to run.
func (d *LatencyData) EuropeanSeries() *stats.Series {
	names := make([]string, 0, len(d.PerAnchor))
	for name := range d.PerAnchor {
		names = append(names, name)
	}
	sort.Strings(names)
	var out stats.Series
	for _, name := range names {
		switch d.Regions[name] {
		case "BE", "NL", "DE":
			for _, smp := range d.PerAnchor[name].Samples() {
				out.Add(smp.At, smp.Value)
			}
		}
	}
	return &out
}

// RunLatencyCampaign pings every anchor (3 probes per round) each
// interval for dur, like the paper's 5-month / 5-minute campaign.
func (tb *Testbed) RunLatencyCampaign(dur, interval time.Duration) *LatencyData {
	data := &LatencyData{
		PerAnchor: make(map[string]*stats.Series),
		Regions:   make(map[string]string),
	}
	byAddr := make(map[netem.Addr]string)
	for _, a := range tb.Anchors {
		data.Anchors = append(data.Anchors, Anchor{Name: a.Name, Region: a.Region})
		data.PerAnchor[a.Name] = &stats.Series{}
		data.Regions[a.Name] = a.Region
		byAddr[a.Node.Addr()] = a.Name
	}
	prober := measure.NewProber(tb.PCStarlink)
	prober.Observe(tb.Obs)
	end := tb.Sched.Now().Add(dur)
	prober.Monitor(tb.AnchorAddrs(), interval, 3, end, func(r measure.PingResult) {
		data.Sent++
		if !r.OK {
			data.Lost++
			return
		}
		name := byAddr[r.Target]
		data.PerAnchor[name].Add(time.Duration(r.At), r.RTT.Seconds()*1000)
	})
	tb.Sched.RunUntil(end.Add(time.Minute))
	tb.PCStarlink.Unbind(netem.ProtoICMP, 0)
	return data
}

// noGap, as repeat's gap, starts the next repetition inside the finishing
// callback itself, with no scheduler event in between.
const noGap time.Duration = -1

// repeat is the campaign driver: it runs repetitions first … first+n-1 of
// a callback-reporting measurement on tb, one after another. start begins
// repetition i and calls done with its result when it finishes; the next
// repetition begins gap later. The scheduler then runs for budget of
// virtual time, so a repetition whose callback never fires ends the
// campaign there with fewer than n results. Results come back in
// repetition order.
func repeat[T any](tb *Testbed, first, n int, gap, budget time.Duration, start func(i int, done func(T))) []T {
	var out []T
	var next func(i int)
	next = func(i int) {
		if i >= first+n {
			return
		}
		start(i, func(r T) {
			out = append(out, r)
			if gap == noGap {
				next(i + 1)
				return
			}
			tb.Sched.After(gap, func() { next(i + 1) })
		})
	}
	next(first)
	tb.Sched.RunFor(budget)
	return out
}

// H3Record is one bulk transfer's outcome.
type H3Record struct {
	Result measure.TransferResult
	Loss   trace.LossReport
}

// H3Campaign aggregates a set of transfers in one direction.
type H3Campaign struct {
	Records []H3Record
}

// RTTSamplesMs pools every RTT sample of the campaign (Figure 3 series).
func (c *H3Campaign) RTTSamplesMs() []float64 {
	var out []float64
	for _, r := range c.Records {
		out = append(out, r.Result.RTTs.Milliseconds()...)
	}
	return out
}

// LossRatio returns pooled lost/sent.
func (c *H3Campaign) LossRatio() float64 {
	var lost, sent uint64
	for _, r := range c.Records {
		lost += r.Loss.PacketsLost
		sent += r.Loss.PacketsSent
	}
	if sent == 0 {
		return 0
	}
	return float64(lost) / float64(sent)
}

// BurstLengths pools loss-burst lengths (Figure 4).
func (c *H3Campaign) BurstLengths() []int {
	var out []int
	for _, r := range c.Records {
		out = append(out, r.Loss.BurstLengths()...)
	}
	return out
}

// EventDurations pools loss-event durations in seconds.
func (c *H3Campaign) EventDurations() []float64 {
	var out []float64
	for _, r := range c.Records {
		out = append(out, r.Loss.EventDurations()...)
	}
	return out
}

// Goodputs returns per-transfer goodputs in Mbit/s.
func (c *H3Campaign) Goodputs() []float64 {
	out := make([]float64, 0, len(c.Records))
	for _, r := range c.Records {
		if r.Result.Completed {
			out = append(out, r.Result.GoodputMbps)
		}
	}
	return out
}

// RunH3Campaign executes n bulk transfers of size bytes, spaced by gap,
// in the given direction, from PC-Starlink to the UCLouvain server.
func (tb *Testbed) RunH3Campaign(n int, size int, download bool, gap time.Duration) *H3Campaign {
	return tb.RunH3CampaignFrom(tb.PCStarlink, n, size, download, gap, tb.QUICConf)
}

// RunH3CampaignFrom runs the bulk campaign from an arbitrary client node
// with an explicit transport configuration — the wired-baseline check and
// the pacing/receive-window ablations use this.
func (tb *Testbed) RunH3CampaignFrom(client *netem.Node, n int, size int, download bool, gap time.Duration, qcfg quic.Config) *H3Campaign {
	// Generous horizon: transfers self-pace.
	perTransfer := time.Duration(float64(size*8)/(10e6))*time.Second + gap + 2*time.Minute
	recs := repeat(tb, 0, n, gap, time.Duration(n)*perTransfer, func(_ int, done func(H3Record)) {
		measure.H3Transfer(client, tb.H3Server, tb.UCLServer.Addr(), H3Port, download, size, qcfg, func(res measure.TransferResult) {
			done(H3Record{Result: res, Loss: trace.AnalyzeLosses(res.ReceiverCapture.Received)})
		})
	})
	return &H3Campaign{Records: recs}
}

// msgSession is one message session's outcome.
type msgSession struct {
	rttsMs []float64
	loss   trace.LossReport
}

// MsgCampaign aggregates message sessions of one direction.
type MsgCampaign struct {
	RTTsMs []float64
	sent   uint64
	lost   uint64
	bursts []int
	durs   []float64
}

// foldMessages pools sessions, in order, into one campaign.
func foldMessages(sessions []msgSession) *MsgCampaign {
	camp := &MsgCampaign{}
	for _, s := range sessions {
		camp.RTTsMs = append(camp.RTTsMs, s.rttsMs...)
		camp.sent += s.loss.PacketsSent
		camp.lost += s.loss.PacketsLost
		camp.bursts = append(camp.bursts, s.loss.BurstLengths()...)
		camp.durs = append(camp.durs, s.loss.EventDurations()...)
	}
	return camp
}

// LossRatio returns pooled lost/sent.
func (c *MsgCampaign) LossRatio() float64 {
	if c.sent == 0 {
		return 0
	}
	return float64(c.lost) / float64(c.sent)
}

// BurstLengths pools loss bursts.
func (c *MsgCampaign) BurstLengths() []int { return c.bursts }

// EventDurations pools loss-event durations (seconds).
func (c *MsgCampaign) EventDurations() []float64 { return c.durs }

// RunMessagesCampaign executes n message sessions (25 msg/s of 5–25 kB
// for sessionDur each) in the given direction.
func (tb *Testbed) RunMessagesCampaign(n int, sessionDur time.Duration, download bool) *MsgCampaign {
	return tb.RunMessagesCampaignCfg(n, sessionDur, download, tb.QUICConf)
}

// RunMessagesCampaignCfg is RunMessagesCampaign with an explicit QUIC
// configuration (the pacing ablation flips EnablePacing).
func (tb *Testbed) RunMessagesCampaignCfg(n int, sessionDur time.Duration, download bool, qcfg quic.Config) *MsgCampaign {
	return foldMessages(tb.runMessageSessions(n, sessionDur, download, qcfg))
}

func (tb *Testbed) runMessageSessions(n int, sessionDur time.Duration, download bool, qcfg quic.Config) []msgSession {
	return repeat(tb, 0, n, 30*time.Second, time.Duration(n)*(sessionDur+time.Minute), func(_ int, done func(msgSession)) {
		measure.MessageSession(tb.PCStarlink, tb.H3Server, tb.UCLServer.Addr(), H3Port, download, 25, sessionDur, 5000, 25000, qcfg, func(res measure.Session) {
			done(msgSession{res.RTTs.Milliseconds(), trace.AnalyzeLosses(res.ReceiverCapture.Received)})
		})
	})
}

// Tech selects a vantage point.
type Tech int

// Vantage points.
const (
	TechStarlink Tech = iota
	TechSatCom
	TechWired
)

// String implements fmt.Stringer.
func (t Tech) String() string {
	switch t {
	case TechStarlink:
		return "starlink"
	case TechSatCom:
		return "satcom"
	default:
		return "wired"
	}
}

// ParseTech is the inverse of Tech.String.
func ParseTech(s string) (Tech, error) {
	for _, t := range []Tech{TechStarlink, TechSatCom, TechWired} {
		if s == t.String() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown tech %q", s)
}

// SpeedtestConfig resolves the testbed's speedtest client configuration:
// the Config override when set, the Ookla-like defaults otherwise.
func (tb *Testbed) SpeedtestConfig() measure.SpeedtestConfig {
	cfg := measure.DefaultSpeedtestConfig()
	if tb.Cfg.Speedtest.Connections > 0 {
		cfg = tb.Cfg.Speedtest
	}
	tb.Cfg.Transport.applyTCP(&cfg.TCP)
	return cfg
}

func (tb *Testbed) vantage(t Tech) *netem.Node {
	switch t {
	case TechStarlink:
		return tb.PCStarlink
	case TechSatCom:
		return tb.PCSatCom
	default:
		return tb.PCWired
	}
}

// RunSpeedtestCampaign performs n Ookla-like speedtests from the given
// vantage point, spaced by gap, and returns the results.
func (tb *Testbed) RunSpeedtestCampaign(t Tech, n int, gap time.Duration) []measure.SpeedtestResult {
	node := tb.vantage(t)
	prober := measure.NewProber(node)
	prober.Observe(tb.Obs)
	cfg := tb.SpeedtestConfig()
	budget := time.Duration(n) * (cfg.Warmup*2 + cfg.Window*2 + gap + 30*time.Second)
	out := repeat(tb, 0, n, gap, budget, func(_ int, done func(measure.SpeedtestResult)) {
		measure.RunSpeedtest(prober, tb.OoklaServers, cfg, done)
	})
	node.Unbind(netem.ProtoICMP, 0)
	return out
}

// RunWebCampaign visits nVisits sites (cycling through the corpus) from
// the vantage point and returns the successful visit results.
func (tb *Testbed) RunWebCampaign(t Tech, nVisits int, gap time.Duration) []web.VisitResult {
	return tb.runWebVisits(t, 0, nVisits, gap)
}

// runWebVisits performs n visits starting at the global visit offset
// start, so sharded campaigns walk the same site cycle a sequential run
// would.
func (tb *Testbed) runWebVisits(t Tech, start, n int, gap time.Duration) []web.VisitResult {
	node := tb.vantage(t)
	return repeat(tb, start, n, gap, time.Duration(n)*(90*time.Second+gap), func(i int, done func(web.VisitResult)) {
		site := &tb.Sites[i%len(tb.Sites)]
		b := &web.Browser{
			Node:     node,
			Resolve:  tb.WebResolver(site),
			TCP:      tb.WebTCP,
			Deadline: 90 * time.Second,
		}
		b.Visit(site, done)
	})
}

// MiddleboxAudit is the §3.5 result set for one vantage point.
type MiddleboxAudit struct {
	Hops      []measure.TraceboxHop
	NATLevels int
	PEP       measure.PEPProbe
}

// RunMiddleboxAudit runs traceroute + Tracebox + the PEP probe from a
// vantage point toward the UCLouvain server.
func (tb *Testbed) RunMiddleboxAudit(t Tech) MiddleboxAudit {
	node := tb.vantage(t)
	prober := measure.NewProber(node)
	prober.Observe(tb.Obs)
	var audit MiddleboxAudit
	prober.Tracebox(tb.UCLServer.Addr(), 24, func(hops []measure.TraceboxHop) {
		audit.Hops = hops
		// NAT levels = distinct embedded-checksum residues observed in
		// the quotes (each translator fixes the checksum by a different
		// delta; compliant NATs restore the embedded addresses, RFC
		// 5508, so the checksum is what leaks the translation count).
		seen := map[uint16]bool{}
		for _, h := range hops {
			if h.Residue != 0 {
				seen[h.Residue] = true
			}
		}
		audit.NATLevels = len(seen)
	})
	tb.Sched.RunFor(3 * time.Minute)
	prober.DetectPEP(tb.UCLServer.Addr(), 80, 24, func(r measure.PEPProbe) {
		audit.PEP = r
	})
	tb.Sched.RunFor(3 * time.Minute)
	node.Unbind(netem.ProtoICMP, 0)
	return audit
}

// RunWeheAudit replays the full Wehe suite `repeats` times per service
// from a vantage point and returns the per-service verdicts.
func (tb *Testbed) RunWeheAudit(t Tech, repeats int) []wehe.Detection {
	node := tb.vantage(t)
	rng := tb.Sched.RNG().Stream("wehe")
	traces := wehe.DefaultServices(rng)
	cfg := tb.WebTCP
	cfg.TLSRounds = 0
	// The replay server lives next to the UCLouvain host.
	wehe.Server(tb.UCLServer, traces, cfg)

	// One detection per service, back to back.
	budget := time.Duration(len(traces)*repeats) * 2 * 40 * time.Second
	return repeat(tb, 0, len(traces), noGap, budget, func(i int, done func(wehe.Detection)) {
		wehe.Detect(node, tb.UCLServer.Addr(), &traces[i], repeats, cfg, done)
	})
}

// ConnSetupStats measures TCP+TLS connection setup from a vantage point,
// averaged over the web campaign's connections (§3.4's 167 ms vs 2030 ms).
func ConnSetupStats(visits []web.VisitResult) stats.Summary {
	var xs []float64
	for _, v := range visits {
		for _, d := range v.ConnSetupTimes {
			xs = append(xs, d.Seconds()*1000)
		}
	}
	return stats.Summarize(xs)
}
