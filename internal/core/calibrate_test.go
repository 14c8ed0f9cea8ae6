package core

import (
	"fmt"
	"os"
	"testing"
	"time"

	"starlinkperf/internal/stats"
	"starlinkperf/internal/web"
)

// TestCalibrationReport runs the report at calibration sizes and prints
// its key observables against the paper's values. Run with
// CALIBRATE=1 go test -run TestCalibrationReport -v while tuning.
func TestCalibrationReport(t *testing.T) {
	if os.Getenv("CALIBRATE") == "" {
		t.Skip("set CALIBRATE=1 to run the calibration report")
	}
	sz := QuickSizes()
	sz.LatencyInterval = 5 * time.Minute
	sz.H3Down, sz.H3Up, sz.H3Size = 6, 4, 100<<20
	sz.MsgSessions, sz.MsgDur = 3, 2*time.Minute
	sz.SpeedtestStarlink, sz.SpeedtestSatCom = 8, 4
	sz.WebVisits = 40
	r := RunReport(DefaultConfig(), sz, Options{})

	// Idle latency: 6h of pings at 5-minute cadence.
	lat := r.Latency
	fmt.Println("== Figure 1: idle RTT per anchor (paper: BE 46-52 med / min 24-28; DE 42 med / min 20.5; NL ~ BE; Fremont 184; SIN 270)")
	for _, a := range lat.Anchors {
		s := stats.Summarize(lat.PerAnchor[a.Name].Values())
		fmt.Printf("  %-16s %-8s med=%5.1f min=%5.1f p95=%5.1f\n", a.Name, a.Region, s.P50, s.Min, s.P95)
	}
	fmt.Printf("  probes sent=%d lost=%d (%.2f%%)\n", lat.Sent, lat.Lost, 100*float64(lat.Lost)/float64(lat.Sent))

	// H3 transfers.
	down, up := r.H3Down, r.H3Up
	dr := stats.Summarize(down.RTTSamplesMs())
	ur := stats.Summarize(up.RTTSamplesMs())
	fmt.Println("== Figure 3: RTT under load (paper: down 95/175/210; up 104/237/310 p50/p95/p99)")
	fmt.Printf("  down n=%d p50=%.0f p95=%.0f p99=%.0f\n", dr.N, dr.P50, dr.P95, dr.P99)
	fmt.Printf("  up   n=%d p50=%.0f p95=%.0f p99=%.0f\n", ur.N, ur.P50, ur.P95, ur.P99)
	fmt.Println("== Table 2 H3 loss (paper: down 1.56% up 1.96%)")
	fmt.Printf("  down %.2f%%  up %.2f%%\n", 100*down.LossRatio(), 100*up.LossRatio())
	gd := stats.Summarize(down.Goodputs())
	gu := stats.Summarize(up.Goodputs())
	fmt.Printf("== H3 goodput (paper: down 100-150, up ~17): down med %.0f, up med %.1f\n", gd.P50, gu.P50)
	db := stats.Summarize(floatify(down.BurstLengths()))
	fmt.Printf("  down bursts: med=%.0f p75=%.0f (paper: >75%% multi-packet)\n", db.P50, db.P75)
	dd := stats.Summarize(down.EventDurations())
	fmt.Printf("  down loss-event durations: p50=%.2gs p95=%.2gs p99=%.2gs (paper: 49us/1.5ms/7.5ms)\n", dd.P50, dd.P95, dd.P99)

	// Messages.
	md, mu := r.MsgDown, r.MsgUp
	mdr := stats.Summarize(md.RTTsMs)
	mur := stats.Summarize(mu.RTTsMs)
	fmt.Println("== Messages RTT (paper: down 50/71/87, up 66/87/143 p50/p95/p99)")
	fmt.Printf("  down p50=%.0f p95=%.0f p99=%.0f\n", mdr.P50, mdr.P95, mdr.P99)
	fmt.Printf("  up   p50=%.0f p95=%.0f p99=%.0f\n", mur.P50, mur.P95, mur.P99)
	fmt.Println("== Table 2 messages loss (paper: down 0.40% up 0.45%)")
	fmt.Printf("  down %.2f%%  up %.2f%%\n", 100*md.LossRatio(), 100*mu.LossRatio())
	mb := stats.Summarize(floatify(md.BurstLengths()))
	fmt.Printf("  msg burst med=%.0f p75=%.0f\n", mb.P50, mb.P75)

	// Speedtests.
	var dm, um []float64
	for _, res := range r.SpeedtestStarlink {
		dm = append(dm, res.DownloadMbps)
		um = append(um, res.UploadMbps)
	}
	sd := stats.Summarize(dm)
	su := stats.Summarize(um)
	fmt.Println("== Figure 5 speedtest Starlink (paper: down med 178 max 386; up med 17 max 64)")
	fmt.Printf("  down med=%.0f max=%.0f  up med=%.1f max=%.1f\n", sd.P50, sd.Max, su.P50, su.Max)

	dm, um = nil, nil
	for _, res := range r.SpeedtestSatCom {
		dm = append(dm, res.DownloadMbps)
		um = append(um, res.UploadMbps)
	}
	fmt.Printf("== SatCom speedtest (paper: down med 82, up med 4.5): down med=%.0f up med=%.1f\n",
		stats.Median(dm), stats.Median(um))

	// Web.
	for tech, visits := range [][]web.VisitResult{TechStarlink: r.WebStarlink, TechSatCom: r.WebSatCom, TechWired: r.WebWired} {
		var ol, si []float64
		fails := 0
		for _, v := range visits {
			if v.Failed {
				fails++
				continue
			}
			ol = append(ol, v.OnLoad.Seconds())
			si = append(si, v.SpeedIndex.Seconds())
		}
		setup := ConnSetupStats(visits)
		fmt.Printf("== Web %-8s onLoad med=%.2fs SI med=%.2fs setup mean=%.0fms fails=%d (paper: SL 2.12/1.82/167; SC 10.91/8.19/2030; W 1.24/1.0)\n",
			Tech(tech), stats.Median(ol), stats.Median(si), setup.Mean, fails)
	}
}

func floatify(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}
