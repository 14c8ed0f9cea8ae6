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

// H3Record is one bulk transfer's outcome.
type H3Record struct {
	Result measure.TransferResult
	Loss   trace.LossReport
}

// H3Campaign aggregates a set of transfers in one direction.
type H3Campaign struct {
	Download bool
	Records  []H3Record
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
	camp := &H3Campaign{Download: download}
	srvAddr := tb.UCLServer.Addr()
	var runOne func(i int)
	runOne = func(i int) {
		if i >= n {
			return
		}
		handle := func(res measure.TransferResult) {
			rec := H3Record{Result: res}
			rec.Loss = trace.AnalyzeLosses(res.ReceiverCapture.Received)
			camp.Records = append(camp.Records, rec)
			tb.Sched.After(gap, func() { runOne(i + 1) })
		}
		if download {
			measure.H3Download(client, tb.H3Server, srvAddr, H3Port, size, qcfg, handle)
		} else {
			measure.H3Upload(client, tb.H3Server, srvAddr, H3Port, size, qcfg, handle)
		}
	}
	runOne(0)
	// Generous horizon: transfers self-pace.
	perTransfer := time.Duration(float64(size*8)/(10e6))*time.Second + gap + 2*time.Minute
	tb.Sched.RunFor(time.Duration(n) * perTransfer)
	return camp
}

// MsgCampaign aggregates message sessions of one direction.
type MsgCampaign struct {
	Download bool
	RTTsMs   []float64
	Loss     trace.LossReport
	sent     uint64
	lost     uint64
	bursts   []int
	durs     []float64
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
	camp := &MsgCampaign{Download: download}
	srvAddr := tb.UCLServer.Addr()
	var runOne func(i int)
	runOne = func(i int) {
		if i >= n {
			return
		}
		handle := func(res measure.MessageSessionResult) {
			camp.RTTsMs = append(camp.RTTsMs, res.RTTs.Milliseconds()...)
			rep := trace.AnalyzeLosses(res.ReceiverCapture.Received)
			camp.sent += rep.PacketsSent
			camp.lost += rep.PacketsLost
			camp.bursts = append(camp.bursts, rep.BurstLengths()...)
			camp.durs = append(camp.durs, rep.EventDurations()...)
			tb.Sched.After(30*time.Second, func() { runOne(i + 1) })
		}
		if download {
			measure.MessagesDownload(tb.PCStarlink, tb.H3Server, srvAddr, H3Port, 25, sessionDur, 5000, 25000, qcfg, handle)
		} else {
			measure.MessagesUpload(tb.PCStarlink, tb.H3Server, srvAddr, H3Port, 25, sessionDur, 5000, 25000, qcfg, handle)
		}
	}
	runOne(0)
	tb.Sched.RunFor(time.Duration(n) * (sessionDur + time.Minute))
	return camp
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
	var out []measure.SpeedtestResult
	var runOne func(i int)
	runOne = func(i int) {
		if i >= n {
			return
		}
		measure.RunSpeedtest(prober, tb.OoklaServers, cfg, func(r measure.SpeedtestResult) {
			out = append(out, r)
			tb.Sched.After(gap, func() { runOne(i + 1) })
		})
	}
	runOne(0)
	tb.Sched.RunFor(time.Duration(n) * (cfg.Warmup*2 + cfg.Window*2 + gap + 30*time.Second))
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
	var out []web.VisitResult
	var runOne func(i int)
	runOne = func(i int) {
		if i >= n {
			return
		}
		site := &tb.Sites[(start+i)%len(tb.Sites)]
		b := &web.Browser{
			Node:     node,
			Resolve:  tb.WebResolver(site),
			TCP:      tb.WebTCP,
			Deadline: 90 * time.Second,
		}
		b.Visit(site, func(r web.VisitResult) {
			out = append(out, r)
			tb.Sched.After(gap, func() { runOne(i + 1) })
		})
	}
	runOne(0)
	tb.Sched.RunFor(time.Duration(n) * (90*time.Second + gap))
	return out
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

	var out []wehe.Detection
	var runOne func(i int)
	runOne = func(i int) {
		if i >= len(traces) {
			return
		}
		wehe.Detect(node, tb.UCLServer.Addr(), &traces[i], repeats, cfg, func(d wehe.Detection) {
			out = append(out, d)
			runOne(i + 1)
		})
	}
	runOne(0)
	tb.Sched.RunFor(time.Duration(len(traces)*repeats) * 2 * 40 * time.Second)
	return out
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
