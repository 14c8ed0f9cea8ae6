package core

import (
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/web"
)

// The tests in this file run scaled-down campaigns and assert the paper's
// qualitative findings (who wins, by roughly what factor, orderings). The
// full-scale reproduction lives in bench_test.go; the CALIBRATE-gated
// report in calibrate_test.go prints exact numbers.

func TestTestbedConstruction(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	if len(tb.Anchors) != 11 {
		t.Errorf("anchors = %d, want 11", len(tb.Anchors))
	}
	if len(tb.OoklaServers) < 2 {
		t.Errorf("ookla servers = %d", len(tb.OoklaServers))
	}
	if len(tb.Sites) != 120 {
		t.Errorf("sites = %d, want 120", len(tb.Sites))
	}
	regions := map[string]int{}
	for _, a := range tb.Anchors {
		regions[a.Region]++
	}
	if regions["BE"] != 4 || regions["NL"] != 2 || regions["DE"] != 2 {
		t.Errorf("region mix = %v", regions)
	}
}

func TestIdleLatencyShape(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	lat := tb.RunLatencyCampaign(90*time.Minute, 5*time.Minute)

	med := func(name string) float64 { return stats.Median(lat.PerAnchor[name].Values()) }
	min := func(name string) float64 { return stats.Min(lat.PerAnchor[name].Values()) }

	// Paper: European medians in the 40-55ms band, minima in the 20-35ms
	// band, "confirming Starlink's 20ms latency promise".
	for _, a := range []string{"be-probe-1", "be-probe-2", "ams-anchor-1", "nbg-anchor-1"} {
		if m := med(a); m < 35 || m > 58 {
			t.Errorf("%s median = %.1f, want Starlink's 40-55ms band", a, m)
		}
		if m := min(a); m < 18 || m > 40 {
			t.Errorf("%s min = %.1f", a, m)
		}
	}
	// The German anchors (via the FRA exit) are the fastest in the
	// paper; the lowest observed RTT is ~20.5ms there.
	if med("nbg-anchor-1") >= med("be-probe-3") {
		t.Error("DE anchor should beat the slowest BE probe")
	}
	// Distant anchors are dominated by terrestrial distance: Fremont
	// ~184ms, Singapore ~270ms, and orderings hold.
	if m := med("fremont-anchor"); m < 160 || m > 210 {
		t.Errorf("fremont median = %.1f, want ~184", m)
	}
	if m := med("sin-anchor"); m < 235 || m > 295 {
		t.Errorf("singapore median = %.1f, want ~270", m)
	}
	if !(med("nyc-anchor") < med("fremont-anchor") && med("fremont-anchor") < med("sin-anchor")) {
		t.Error("distance ordering violated")
	}
}

func TestH3LatencyUnderLoadExceedsIdle(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	idle := tb.RunLatencyCampaign(30*time.Minute, 5*time.Minute)
	idleMed := stats.Median(idle.EuropeanSeries().Values())

	down := tb.RunH3Campaign(2, 50<<20, true, 10*time.Second)
	loadMed := stats.Median(down.RTTSamplesMs())

	if loadMed < idleMed+20 {
		t.Errorf("under-load median %.0fms should clearly exceed idle %.0fms", loadMed, idleMed)
	}
	if loadMed > 200 {
		t.Errorf("under-load median %.0fms implausibly high", loadMed)
	}
	if down.LossRatio() < 0.002 {
		t.Errorf("H3 download loss %.3f%% too low (paper: ~1.5%%)", 100*down.LossRatio())
	}
	if down.LossRatio() > 0.06 {
		t.Errorf("H3 download loss %.3f%% too high", 100*down.LossRatio())
	}
}

func TestMessagesStayNearIdleRTT(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	msg := tb.RunMessagesCampaign(2, time.Minute, true)
	s := stats.Summarize(msg.RTTsMs)
	// Paper: messages RTT stays mostly under 100ms, near ping levels.
	if s.P50 < 35 || s.P50 > 75 {
		t.Errorf("messages median RTT %.0f, want ~50", s.P50)
	}
	if s.P95 > 110 {
		t.Errorf("messages p95 %.0f, want < 110", s.P95)
	}
	// Messages loss is far below H3 loss.
	if msg.LossRatio() > 0.015 {
		t.Errorf("messages loss %.2f%% too high", 100*msg.LossRatio())
	}
}

func TestSpeedtestComparisons(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	sl := tb.RunSpeedtestCampaign(TechStarlink, 3, 20*time.Second)
	sc := tb.RunSpeedtestCampaign(TechSatCom, 3, 20*time.Second)
	if len(sl) != 3 || len(sc) != 3 {
		t.Fatalf("campaigns incomplete: %d/%d", len(sl), len(sc))
	}
	slDown := stats.Median(downs(sl))
	scDown := stats.Median(downs(sc))
	slUp := stats.Median(ups(sl))
	scUp := stats.Median(ups(sc))

	// Paper: Starlink is more than twice as fast as SatCom in download
	// (178 vs 82) and upload (17 vs 4.5).
	if slDown < 2*scDown*0.8 {
		t.Errorf("starlink down %.0f vs satcom %.0f: want ~2x or more", slDown, scDown)
	}
	if slUp < 2*scUp {
		t.Errorf("starlink up %.1f vs satcom %.1f: want >2x", slUp, scUp)
	}
	if slDown < 100 || slDown > 280 {
		t.Errorf("starlink down %.0f outside the 100-280 band", slDown)
	}
	if scDown < 55 || scDown > 100 {
		t.Errorf("satcom down %.0f, want ~82", scDown)
	}
	if scUp > 10 {
		t.Errorf("satcom up %.1f exceeds its 10Mbit/s plan", scUp)
	}
}

func downs(rs []measure.SpeedtestResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.DownloadMbps
	}
	return out
}

func ups(rs []measure.SpeedtestResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.UploadMbps
	}
	return out
}

func medianOnLoad(vs []web.VisitResult) float64 {
	var xs []float64
	for _, v := range vs {
		if !v.Failed {
			xs = append(xs, v.OnLoad.Seconds())
		}
	}
	return stats.Median(xs)
}

func TestWebQoEOrdering(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	const visits = 12
	wired := tb.RunWebCampaign(TechWired, visits, time.Second)
	starlink := tb.RunWebCampaign(TechStarlink, visits, time.Second)
	satcom := tb.RunWebCampaign(TechSatCom, visits, time.Second)

	w := medianOnLoad(wired)
	s := medianOnLoad(starlink)
	c := medianOnLoad(satcom)

	// Paper: wired (1.24) < starlink (2.12) << satcom (10.91); Starlink
	// is 75-80% faster than SatCom.
	if !(w < s && s < c) {
		t.Fatalf("onLoad ordering violated: wired=%.2f starlink=%.2f satcom=%.2f", w, s, c)
	}
	if s > c*0.4 {
		t.Errorf("starlink onLoad %.2f should be at least 60%% faster than satcom %.2f", s, c)
	}
	if c < 6 || c > 18 {
		t.Errorf("satcom onLoad %.2f, want ~11s", c)
	}
	// Connection setup: paper reports 167ms (Starlink) vs 2030ms (SatCom).
	setupSL := ConnSetupStats(starlink).Mean
	setupSC := ConnSetupStats(satcom).Mean
	if setupSC < 5*setupSL {
		t.Errorf("satcom setup %.0fms should dwarf starlink %.0fms", setupSC, setupSL)
	}
}

func TestMiddleboxFindings(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	sl := tb.RunMiddleboxAudit(TechStarlink)

	// Paper §3.5: two NAT levels (192.168.1.1 CPE, 100.64.0.1 CGNAT),
	// no PEP on Starlink.
	if sl.NATLevels != 2 {
		t.Errorf("starlink NAT levels = %d, want 2", sl.NATLevels)
	}
	if len(sl.Hops) < 3 {
		t.Fatalf("starlink path too short: %d hops", len(sl.Hops))
	}
	if got := sl.Hops[0].Addr.String(); got != "192.168.1.1" {
		t.Errorf("hop1 = %s, want the CPE 192.168.1.1", got)
	}
	if got := sl.Hops[1].Addr.String(); got != "100.64.0.1" {
		t.Errorf("hop2 = %s, want the CGNAT 100.64.0.1", got)
	}
	if sl.PEP.ProxyDetected() {
		t.Error("phantom PEP on the Starlink path")
	}

	tb2 := NewTestbed(DefaultConfig())
	sc := tb2.RunMiddleboxAudit(TechSatCom)
	if !sc.PEP.ProxyDetected() {
		t.Error("SatCom PEP not detected")
	}
}

func TestWeheNoDifferentiationOnStarlink(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	// Two repeats over a service subset keeps the test quick; the bench
	// runs the full 22x10.
	ds := tb.RunWeheAudit(TechStarlink, 1)
	if len(ds) != 22 {
		t.Fatalf("services = %d, want 22", len(ds))
	}
	diff := 0
	for _, d := range ds {
		if d.Differentiated {
			diff++
		}
	}
	// Paper: no TD policy found. Allow one statistical false positive.
	if diff > 1 {
		t.Errorf("%d services flagged as differentiated on a neutral network", diff)
	}
}

func TestScenarioFleetGrowthLowersRTT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialShellFraction = 0.72
	cfg.FleetGrowthAt = 12 * time.Hour
	tb := NewTestbed(cfg)
	lat := tb.RunLatencyCampaign(24*time.Hour, 5*time.Minute)
	eu := lat.EuropeanSeries()
	before := stats.Median(eu.Window(0, 12*time.Hour))
	after := stats.Median(eu.Window(12*time.Hour, 24*time.Hour))
	// Paper: "distribution takes on slightly smaller values" after the
	// early-2022 launches.
	if after >= before {
		t.Errorf("fleet growth should lower the median: before=%.1f after=%.1f", before, after)
	}
	if before-after > 15 {
		t.Errorf("step too large: %.1f -> %.1f (paper: a few ms)", before, after)
	}
}

func TestScenarioLoadEpisodeRaisesRTT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Load = LoadEpisode{Start: 6 * time.Hour, End: 12 * time.Hour, ExtraOneWay: 4 * time.Millisecond}
	tb := NewTestbed(cfg)
	lat := tb.RunLatencyCampaign(12*time.Hour, 5*time.Minute)
	eu := lat.EuropeanSeries()
	calm := stats.Median(eu.Window(0, 6*time.Hour))
	busy := stats.Median(eu.Window(6*time.Hour, 12*time.Hour))
	if busy < calm+5 {
		t.Errorf("load episode should raise the median: calm=%.1f busy=%.1f", calm, busy)
	}
}

func TestNoDiurnalPattern(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	lat := tb.RunLatencyCampaign(48*time.Hour, 10*time.Minute)
	groups := lat.EuropeanSeries().GroupByHourOfDay()
	_, _, p := stats.MoodsMedianTest(groups)
	// Paper: "a Mood's test suggests the samples are drawn from
	// distributions with the same median".
	if p < 0.01 {
		t.Errorf("diurnal pattern detected (p=%.4f); the model has no day-night cycle", p)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	lat := tb.RunLatencyCampaign(time.Hour, 10*time.Minute)
	var b strings.Builder
	RenderTable1(&b, 150*24*time.Hour, 107*24*time.Hour, 107*24*time.Hour, 150*24*time.Hour, len(tb.Anchors), len(tb.Sites))
	RenderFigure1(&b, Figure1(lat, tb.Anchors))
	RenderFigure2(&b, Figure2(lat))
	out := b.String()
	for _, want := range []string{"Table 1", "Figure 1", "Figure 2", "be-probe-1", "sin-anchor"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestParseTechInvertsString(t *testing.T) {
	for _, tech := range []Tech{TechStarlink, TechSatCom, TechWired} {
		if got, err := ParseTech(tech.String()); err != nil || got != tech {
			t.Errorf("ParseTech(%q) = %v, %v", tech.String(), got, err)
		}
	}
	if _, err := ParseTech("dialup"); err == nil {
		t.Error("unknown tech accepted")
	}
}
