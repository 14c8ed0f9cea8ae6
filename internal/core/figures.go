package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/web"
	"starlinkperf/internal/wehe"
)

// This file renders each reproduced table and figure in the layout the
// paper reports, so `starlink-bench` output can be read side by side with
// the PDF. Every Render function takes the campaign data produced by the
// Run* methods.

// RenderTable1 prints the dataset overview (Table 1).
func RenderTable1(w *strings.Builder, latencyDur, tputDur, webDur, quicDur time.Duration, anchors, sites int) {
	stats.Fprintf(w, "Table 1: Overview of the datasets\n")
	stats.Fprintf(w, "  %-14s %-9s %-10s %s\n", "Measure", "Network", "Duration", "Target")
	stats.Fprintf(w, "  %-14s %-9s %-10s %d anchors\n", "Latency", "Starlink", days(latencyDur), anchors)
	stats.Fprintf(w, "  %-14s %-9s %-10s Ookla servers\n", "Throughput", "Starlink", days(tputDur))
	stats.Fprintf(w, "  %-14s %-9s %-10s Ookla servers\n", "", "SatCom", days(tputDur))
	stats.Fprintf(w, "  %-14s %-9s %-10s %d websites\n", "Web Browsing", "Starlink", days(webDur), sites)
	stats.Fprintf(w, "  %-14s %-9s %-10s %d websites\n", "", "SatCom", days(webDur), sites)
	stats.Fprintf(w, "  %-14s %-9s %-10s our server\n", "QUIC H3", "Starlink", days(quicDur))
	stats.Fprintf(w, "  %-14s %-9s %-10s our server\n", "QUIC messages", "Starlink", days(quicDur))
}

func days(d time.Duration) string {
	if d >= 24*time.Hour {
		return fmt.Sprintf("%.0f days", d.Hours()/24)
	}
	return d.String()
}

// Figure1Row is one anchor's boxplot.
type Figure1Row struct {
	Anchor  string
	Region  string
	Summary stats.Summary
}

// Figure1 computes the per-anchor RTT distributions.
func Figure1(data *LatencyData, order []Anchor) []Figure1Row {
	rows := make([]Figure1Row, 0, len(order))
	for _, a := range order {
		rows = append(rows, Figure1Row{
			Anchor:  a.Name,
			Region:  a.Region,
			Summary: stats.Summarize(data.PerAnchor[a.Name].Values()),
		})
	}
	return rows
}

// RenderFigure1 prints the boxplot series (whiskers p5/p95, box p25/p75,
// median stroke, absolute minimum on the top axis — the paper's layout).
func RenderFigure1(w *strings.Builder, rows []Figure1Row) {
	stats.Fprintf(w, "Figure 1: RTT distribution per anchor [ms]\n")
	stats.Fprintf(w, "  %-16s %-8s %6s %6s %6s %6s %6s %6s\n",
		"anchor", "region", "min", "p5", "p25", "p50", "p75", "p95")
	for _, r := range rows {
		s := r.Summary
		stats.Fprintf(w, "  %-16s %-8s %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f\n",
			r.Anchor, r.Region, s.Min, s.P5, s.P25, s.P50, s.P75, s.P95)
	}
}

// Figure2Bin is one 6-hour bin of the European RTT timeline.
type Figure2Bin struct {
	Start time.Duration
	stats.Summary
}

// Figure2 bins the European anchors' series into 6-hour windows.
func Figure2(data *LatencyData) []Figure2Bin {
	bins := data.EuropeanSeries().BinByTime(6 * time.Hour)
	out := make([]Figure2Bin, len(bins))
	for i, b := range bins {
		out[i] = Figure2Bin{Start: b.Start, Summary: b.Summary}
	}
	return out
}

// RenderFigure2 prints the timeline percentiles.
func RenderFigure2(w *strings.Builder, bins []Figure2Bin) {
	stats.Fprintf(w, "Figure 2: RTT towards the European anchors over time [ms, 6h bins]\n")
	stats.Fprintf(w, "  %10s %6s %6s %6s %6s %6s %6s\n", "t", "min", "p5", "p25", "p50", "p75", "p95")
	for _, b := range bins {
		stats.Fprintf(w, "  %9.1fd %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f\n",
			b.Start.Hours()/24, b.Min, b.P5, b.P25, b.P50, b.P75, b.P95)
	}
}

// Figure3 summarizes the RTT-under-load CDFs.
type Figure3 struct {
	Download, Upload stats.Summary
	DownCDF, UpCDF   []stats.Point
}

// MakeFigure3 builds the under-load RTT figure from the two campaigns.
func MakeFigure3(down, up *H3Campaign) Figure3 {
	d := down.RTTSamplesMs()
	u := up.RTTSamplesMs()
	return Figure3{
		Download: stats.Summarize(d),
		Upload:   stats.Summarize(u),
		DownCDF:  stats.NewECDF(d).Points(40),
		UpCDF:    stats.NewECDF(u).Points(40),
	}
}

// RenderFigure3 prints the distribution summary and CDF series.
func RenderFigure3(w *strings.Builder, f Figure3) {
	stats.Fprintf(w, "Figure 3: RTT of acknowledged packets during H3 transfers [ms]\n")
	stats.Fprintf(w, "  download: n=%d p50=%.0f p95=%.0f p99=%.0f\n", f.Download.N, f.Download.P50, f.Download.P95, f.Download.P99)
	stats.Fprintf(w, "  upload:   n=%d p50=%.0f p95=%.0f p99=%.0f\n", f.Upload.N, f.Upload.P50, f.Upload.P95, f.Upload.P99)
	stats.Fprintf(w, "  download CDF: %s\n", cdfString(f.DownCDF))
	stats.Fprintf(w, "  upload CDF:   %s\n", cdfString(f.UpCDF))
}

func cdfString(pts []stats.Point) string {
	var b strings.Builder
	for i, p := range pts {
		if i%8 == 0 && i > 0 {
			b.WriteString("\n                ")
		}
		fmt.Fprintf(&b, "(%.0f,%.2f) ", p.X, p.Y)
	}
	return b.String()
}

// Table2 holds the QUIC loss ratios.
type Table2 struct {
	H3Down, H3Up, MsgDown, MsgUp float64
}

// MakeTable2 assembles the loss table.
func MakeTable2(h3Down, h3Up *H3Campaign, msgDown, msgUp *MsgCampaign) Table2 {
	return Table2{
		H3Down:  h3Down.LossRatio(),
		H3Up:    h3Up.LossRatio(),
		MsgDown: msgDown.LossRatio(),
		MsgUp:   msgUp.LossRatio(),
	}
}

// RenderTable2 prints the loss ratios in the paper's column order.
func RenderTable2(w *strings.Builder, t Table2) {
	stats.Fprintf(w, "Table 2: QUIC packet loss ratios\n")
	stats.Fprintf(w, "  %-8s %-8s %-12s %-12s\n", "H3 dn", "H3 up", "Messages dn", "Messages up")
	stats.Fprintf(w, "  %-8s %-8s %-12s %-12s\n",
		pct(t.H3Down), pct(t.H3Up), pct(t.MsgDown), pct(t.MsgUp))
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// Figure4 holds a loss-burst-length CDF.
type Figure4 struct {
	Label            string
	Download, Upload []stats.Point
	// MultiPacketFracDown is the fraction of download loss events longer
	// than one packet (the paper's ">75%" observation).
	MultiPacketFracDown float64
	SinglePacketFracUp  float64
}

// MakeFigure4 builds the burst CDFs for one workload.
func MakeFigure4(label string, down, up []int) Figure4 {
	f := Figure4{Label: label}
	dn := stats.CountBursts(down)
	upE := stats.CountBursts(up)
	f.Download = dn.Points(20)
	f.Upload = upE.Points(20)
	if dn.N() > 0 {
		f.MultiPacketFracDown = 1 - dn.At(1)
	}
	if upE.N() > 0 {
		f.SinglePacketFracUp = upE.At(1)
	}
	return f
}

// RenderFigure4 prints the burst-length CDFs.
func RenderFigure4(w *strings.Builder, f Figure4) {
	stats.Fprintf(w, "Figure 4 (%s): loss burst length CDF\n", f.Label)
	stats.Fprintf(w, "  download: %s\n", cdfString(f.Download))
	stats.Fprintf(w, "  upload:   %s\n", cdfString(f.Upload))
	stats.Fprintf(w, "  download multi-packet loss events: %.0f%%; upload single-packet: %.0f%%\n",
		100*f.MultiPacketFracDown, 100*f.SinglePacketFracUp)
}

// Figure5 summarizes the throughput distributions.
type Figure5 struct {
	StarlinkDown, StarlinkUp stats.Summary
	SatComDown, SatComUp     stats.Summary
	H3Down, H3Up             stats.Summary
}

// MakeFigure5 assembles the throughput figure.
func MakeFigure5(starlink, satcom []measure.SpeedtestResult, h3Down, h3Up *H3Campaign) Figure5 {
	var sd, su, cd, cu []float64
	for _, r := range starlink {
		sd = append(sd, r.DownloadMbps)
		su = append(su, r.UploadMbps)
	}
	for _, r := range satcom {
		cd = append(cd, r.DownloadMbps)
		cu = append(cu, r.UploadMbps)
	}
	return Figure5{
		StarlinkDown: stats.Summarize(sd),
		StarlinkUp:   stats.Summarize(su),
		SatComDown:   stats.Summarize(cd),
		SatComUp:     stats.Summarize(cu),
		H3Down:       stats.Summarize(h3Down.Goodputs()),
		H3Up:         stats.Summarize(h3Up.Goodputs()),
	}
}

// RenderFigure5 prints the three distributions per direction.
func RenderFigure5(w *strings.Builder, f Figure5) {
	stats.Fprintf(w, "Figure 5: throughput distributions [Mbit/s]\n")
	stats.Fprintf(w, "  %-22s %6s %6s %6s %6s %6s\n", "series", "p5", "p25", "p50", "p75", "max")
	row := func(name string, s stats.Summary) {
		stats.Fprintf(w, "  %-22s %6.1f %6.1f %6.1f %6.1f %6.1f\n", name, s.P5, s.P25, s.P50, s.P75, s.Max)
	}
	row("starlink ookla down", f.StarlinkDown)
	row("starlink h3 down", f.H3Down)
	row("satcom ookla down", f.SatComDown)
	row("starlink ookla up", f.StarlinkUp)
	row("starlink h3 up", f.H3Up)
	row("satcom ookla up", f.SatComUp)
}

// Figure6 holds the web QoE ECDFs.
type Figure6 struct {
	OnLoad     map[string][]stats.Point
	SpeedIndex map[string][]stats.Point
	Medians    map[string][2]float64 // tech -> (onLoad, SI) medians seconds
	Setup      map[string]float64    // tech -> mean connection setup ms
}

// MakeFigure6 assembles the QoE figure from per-tech visits.
func MakeFigure6(visits map[string][]web.VisitResult) Figure6 {
	f := Figure6{
		OnLoad:     map[string][]stats.Point{},
		SpeedIndex: map[string][]stats.Point{},
		Medians:    map[string][2]float64{},
		Setup:      map[string]float64{},
	}
	// Iterate techs in sorted order: the per-tech stats are independent,
	// but a fixed order keeps any future cross-tech accumulation (and
	// float summation inside it) deterministic by construction.
	techs := make([]string, 0, len(visits))
	for tech := range visits {
		techs = append(techs, tech)
	}
	sort.Strings(techs)
	for _, tech := range techs {
		vs := visits[tech]
		var ol, si []float64
		for _, v := range vs {
			if v.Failed {
				continue
			}
			ol = append(ol, v.OnLoad.Seconds())
			si = append(si, v.SpeedIndex.Seconds())
		}
		f.OnLoad[tech] = stats.NewECDF(ol).Points(30)
		f.SpeedIndex[tech] = stats.NewECDF(si).Points(30)
		f.Medians[tech] = [2]float64{stats.Median(ol), stats.Median(si)}
		f.Setup[tech] = ConnSetupStats(vs).Mean
	}
	return f
}

// RenderFigure6 prints the QoE ECDF medians and series.
func RenderFigure6(w *strings.Builder, f Figure6) {
	stats.Fprintf(w, "Figure 6: web QoE\n")
	techs := make([]string, 0, len(f.Medians))
	for t := range f.Medians {
		techs = append(techs, t)
	}
	sort.Strings(techs)
	for _, t := range techs {
		m := f.Medians[t]
		stats.Fprintf(w, "  %-9s onLoad med=%.2fs  SpeedIndex med=%.2fs  conn setup mean=%.0fms\n",
			t, m[0], m[1], f.Setup[t])
	}
	for _, t := range techs {
		stats.Fprintf(w, "  onLoad CDF %-9s: %s\n", t, cdfString(f.OnLoad[t]))
	}
}

// RenderMiddleboxAudit prints the §3.5 findings.
func RenderMiddleboxAudit(w *strings.Builder, tech string, a MiddleboxAudit) {
	stats.Fprintf(w, "Middleboxes (%s):\n", tech)
	for _, h := range a.Hops {
		if h.Timeout {
			stats.Fprintf(w, "  hop %2d: *\n", h.TTL)
			continue
		}
		stats.Fprintf(w, "  hop %2d: %-16s rtt=%s", h.TTL, h.Addr, h.RTT.Round(100*time.Microsecond))
		for _, ch := range h.Changes {
			stats.Fprintf(w, "  [%s %s->%s]", ch.Field, ch.Original, ch.Observed)
		}
		fmt.Fprintln(w)
	}
	stats.Fprintf(w, "  NAT levels detected: %d\n", a.NATLevels)
	if a.PEP.ProxyDetected() {
		stats.Fprintf(w, "  PEP: detected (SYN-ACK at TTL %d of %d)\n", a.PEP.SynAckAtTTL, a.PEP.PathHops)
	} else {
		stats.Fprintf(w, "  PEP: none (handshake completes at the destination, TTL %d)\n", a.PEP.SynAckAtTTL)
	}
}

// RenderWehe prints the traffic-discrimination verdicts.
func RenderWehe(w *strings.Builder, tech string, ds []wehe.Detection) {
	stats.Fprintf(w, "Traffic discrimination (%s, Wehe %d services):\n", tech, len(ds))
	diff := 0
	for _, d := range ds {
		stats.Fprintf(w, "  %s\n", d)
		if d.Differentiated {
			diff++
		}
	}
	stats.Fprintf(w, "  => %d/%d services differentiated\n", diff, len(ds))
}

// LossDurations renders the §3.2 loss-event duration percentiles.
func LossDurations(w *strings.Builder, label string, durationsSec []float64) {
	s := stats.Summarize(durationsSec)
	stats.Fprintf(w, "Loss event durations (%s): n=%d p50=%s p75=%s p90=%s p95=%s p99=%s\n",
		label, s.N, secStr(s.P50), secStr(s.P75), secStr(s.P90), secStr(s.P95), secStr(s.P99))
}

func secStr(s float64) string {
	if math.IsNaN(s) {
		return stats.NoSample
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
