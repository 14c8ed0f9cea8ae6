package core

import (
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/fleet"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/trace"
	"starlinkperf/internal/web"
)

// fabricate small campaign objects so the renderers can be exercised
// without running expensive experiments.

func fabH3() *H3Campaign {
	c := &H3Campaign{}
	rec := H3Record{}
	rec.Result.Completed = true
	rec.Result.GoodputMbps = 123
	rec.Result.RTTs = &trace.RTTRecorder{}
	for i := 0; i < 50; i++ {
		rec.Result.RTTs.Samples = append(rec.Result.RTTs.Samples,
			trace.RTTSample{RTT: time.Duration(90+i) * time.Millisecond})
	}
	rec.Loss = trace.LossReport{
		PacketsSent: 1000, PacketsReceived: 985, PacketsLost: 15,
		Events: []trace.LossEvent{{Burst: 3}, {Burst: 1}, {Burst: 11}},
	}
	c.Records = append(c.Records, rec)
	return c
}

func fabMsg() *MsgCampaign {
	return &MsgCampaign{
		RTTsMs: []float64{48, 50, 52, 60, 70},
		sent:   10000, lost: 40,
		bursts: []int{1, 2, 40},
		durs:   []float64{0.0001, 0.1},
	}
}

func TestFigure3AndTable2Renderers(t *testing.T) {
	down, up := fabH3(), fabH3()
	f3 := MakeFigure3(down, up)
	if f3.Download.N != 50 || f3.Upload.N != 50 {
		t.Fatalf("sample counts: %d/%d", f3.Download.N, f3.Upload.N)
	}
	var b strings.Builder
	RenderFigure3(&b, f3)
	t2 := MakeTable2(down, up, fabMsg(), fabMsg())
	RenderTable2(&b, t2)
	if t2.H3Down != 0.015 {
		t.Errorf("loss ratio = %v, want 0.015", t2.H3Down)
	}
	if !strings.Contains(b.String(), "1.50%") {
		t.Errorf("table output missing the loss percentage:\n%s", b.String())
	}
}

func TestFigure4Renderer(t *testing.T) {
	f := MakeFigure4("H3 transfers", []int{2, 3, 4, 1}, []int{1, 1, 1, 5})
	if f.MultiPacketFracDown != 0.75 {
		t.Errorf("multi-packet fraction = %v, want 0.75", f.MultiPacketFracDown)
	}
	if f.SinglePacketFracUp != 0.75 {
		t.Errorf("single-packet fraction = %v, want 0.75", f.SinglePacketFracUp)
	}
	var b strings.Builder
	RenderFigure4(&b, f)
	if !strings.Contains(b.String(), "H3 transfers") {
		t.Error("label missing")
	}
}

func TestFigure5Renderer(t *testing.T) {
	sl := []measure.SpeedtestResult{{DownloadMbps: 180, UploadMbps: 18}, {DownloadMbps: 160, UploadMbps: 16}}
	sc := []measure.SpeedtestResult{{DownloadMbps: 84, UploadMbps: 4.5}}
	f := MakeFigure5(sl, sc, fabH3(), fabH3())
	if f.StarlinkDown.P50 != 170 {
		t.Errorf("starlink down median = %v", f.StarlinkDown.P50)
	}
	var b strings.Builder
	RenderFigure5(&b, f)
	for _, want := range []string{"starlink ookla down", "satcom ookla up", "starlink h3 down"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("figure 5 output missing %q", want)
		}
	}
}

func TestLossDurationsRenderer(t *testing.T) {
	var b strings.Builder
	LossDurations(&b, "test", []float64{0.000049, 0.0015, 0.0075})
	out := b.String()
	if !strings.Contains(out, "test") || !strings.Contains(out, "n=3") {
		t.Errorf("output: %s", out)
	}
}

// TestRenderersNoSamples: every quantile renderer shows an empty sample as
// "—" — never as NaN, and never as the duration NaN converts to
// (LossDurations used to print p50=-2562047h47m16.854775808s for n=0). An
// ECDF of no samples stays an empty series: the benchmark's paper_report
// digest folds Figure 4's text, and its quick sizes have one.
func TestRenderersNoSamples(t *testing.T) {
	var b strings.Builder
	LossDurations(&b, "none", nil)
	if want := "Loss event durations (none): n=0 p50=— p75=— p90=— p95=— p99=—\n"; b.String() != want {
		t.Errorf("LossDurations of no events:\n got %q\nwant %q", b.String(), want)
	}
	empty := &H3Campaign{}
	RenderFigure1(&b, []Figure1Row{{Anchor: "nowhere", Region: "EU", Summary: stats.Summarize(nil)}})
	RenderFigure3(&b, MakeFigure3(empty, empty))
	RenderFigure5(&b, MakeFigure5(nil, nil, empty, empty))
	RenderFigure6(&b, MakeFigure6(map[string][]web.VisitResult{"starlink": nil}))
	out := b.String()
	for _, bad := range []string{"NaN", "-2562047h"} {
		if strings.Contains(out, bad) {
			t.Errorf("a renderer printed %q for an empty sample:\n%s", bad, out)
		}
	}
	for _, want := range []string{"nowhere", "download: n=0 p50=— p95=— p99=—", "starlink h3 down            —", "onLoad med=—s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	// A fleet region whose window never entered (or never left) local
	// 18-23 h, or that was in outage throughout, prints "—" in those cells
	// and one footnote.
	b.Reset()
	RenderFleet(&b, &fleet.Result{Regions: []fleet.RegionResult{
		{Region: "full", Terminals: 1, Samples: 9, LatencyP50Ms: 30, LatencyP95Ms: 40, PeakMbpsP50: 80, OffPeakMbpsP50: 100, PeakDipPct: 20},
		{Region: "nopeak", Terminals: 1, Samples: 9, LatencyP50Ms: 30, LatencyP95Ms: 40, OffPeakMbpsP50: 100},
		{Region: "nooff", Terminals: 1, Samples: 9, LatencyP50Ms: 30, LatencyP95Ms: 40, PeakMbpsP50: 80},
		{Region: "outage", Terminals: 1, OutagePct: 100},
	}})
	out = b.String()
	for _, want := range []string{
		"full                1     0.00    30.0    40.0         0      80.0    100.0   20.0\n",
		"nopeak              1     0.00    30.0    40.0         0         —    100.0      —\n",
		"nooff               1     0.00    30.0    40.0         0      80.0        —      —\n",
		"outage              1   100.00       —       —         0         —        —      —\n",
		"—: no samples (",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet table lacks %q:\n%s", want, out)
		}
	}
	for _, bad := range []string{"NaN", " 0.0 "} {
		if strings.Contains(out, bad) {
			t.Errorf("a fleet table printed %q for an empty sample:\n%s", bad, out)
		}
	}
}
