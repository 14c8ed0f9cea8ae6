package starlinkperf

// The ablations of the design choices DESIGN.md calls out: pacing,
// parallel connections, the SatCom PEP and inter-satellite links. Each
// reruns one campaign with one choice flipped and reports both sides as
// custom benchmark metrics (`go test -bench Ablation -v` also logs them).
// The receive window's, §3.3's 150 MB re-run, is a test of quic's
// constants (TestDefaultWindowsNeverBlockStarlinkDownload). The paper's
// tables and figures are cmd/starlink-bench's report, not benchmarks.

import (
	"testing"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/web"
)

func BenchmarkAblationPacing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(core.DefaultConfig())
		unpaced := tb.RunMessagesCampaign(4, 2*time.Minute, false)
		tb.QUICConf = quic.Config{EnablePacing: true}
		withPacing := tb.RunMessagesCampaign(4, 2*time.Minute, false)
		if i == 0 {
			u := stats.Summarize(unpaced.RTTsMs)
			p := stats.Summarize(withPacing.RTTsMs)
			b.Logf("upload message RTT p99: unpaced %.0fms vs paced %.0fms (paper attributes the upload inflation to quiche's missing pacing)", u.P99, p.P99)
			b.ReportMetric(u.P99, "unpaced-p99-ms")
			b.ReportMetric(p.P99, "paced-p99-ms")
		}
	}
}

func BenchmarkAblationParallelConns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := map[int]float64{}
		for _, conns := range []int{1, 4, 8} {
			tb := core.NewTestbed(core.DefaultConfig())
			prober := measure.NewProber(tb.PCStarlink)
			cfg := measure.DefaultSpeedtestConfig()
			cfg.Connections = conns
			var down float64
			measure.RunSpeedtest(prober, tb.OoklaServers, cfg, func(r measure.SpeedtestResult) {
				down = r.DownloadMbps
			})
			tb.Sched.RunFor(2 * time.Minute)
			results[conns] = down
		}
		if i == 0 {
			b.Logf("speedtest download by connection count: 1=%.0f 4=%.0f 8=%.0f Mbit/s (the Ookla-vs-single-QUIC gap)",
				results[1], results[4], results[8])
			b.ReportMetric(results[1], "conns1-mbps")
			b.ReportMetric(results[4], "conns4-mbps")
			b.ReportMetric(results[8], "conns8-mbps")
		}
	}
}

func BenchmarkAblationPEP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := core.NewTestbed(core.DefaultConfig())
		cfgNo := core.DefaultConfig()
		cfgNo.DisableSatComPEP = true
		without := core.NewTestbed(cfgNo)
		vWith := with.RunWebCampaign(core.TechSatCom, 15, time.Second)
		vWithout := without.RunWebCampaign(core.TechSatCom, 15, time.Second)
		stWith := with.RunSpeedtestCampaign(core.TechSatCom, 3, 30*time.Second)
		stWithout := without.RunSpeedtestCampaign(core.TechSatCom, 3, 30*time.Second)
		if i == 0 {
			dl := func(rs []measure.SpeedtestResult) (med float64) {
				var xs []float64
				for _, r := range rs {
					xs = append(xs, r.DownloadMbps)
				}
				return stats.Median(xs)
			}
			b.Logf("SatCom with PEP: onLoad %.1fs, ookla down %.0f; without PEP: onLoad %.1fs, down %.0f",
				medOnLoad(vWith), dl(stWith), medOnLoad(vWithout), dl(stWithout))
			b.ReportMetric(medOnLoad(vWith), "pep-onload-s")
			b.ReportMetric(medOnLoad(vWithout), "nopep-onload-s")
			b.ReportMetric(dl(stWith), "pep-down-mbps")
			b.ReportMetric(dl(stWithout), "nopep-down-mbps")
		}
	}
}

func BenchmarkAblationISL(b *testing.B) {
	// The paper found ISLs disabled (bent pipe, European exits even for
	// Singapore) and anticipated their activation. This ablation compares
	// the measured bent-pipe RTT to Singapore with the +Grid ISL path the
	// constellation could offer.
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(core.DefaultConfig())
		lat := tb.RunLatencyCampaign(6*time.Hour, 5*time.Minute)
		bent := stats.Median(lat.PerAnchor["sin-anchor"].Values())

		con := leo.NewConstellation(leo.NewShell(leo.StarlinkGen1()))
		router := leo.NewISLRouter(con, 0)
		louvain := geo.LatLon{LatDeg: 50.67, LonDeg: 4.61}
		singapore := geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}
		var sumMs float64
		n := 0
		for ep := 0; ep < 20; ep++ {
			at := tb.Sched.Now().Add(-time.Duration(ep) * 15 * time.Minute)
			if at < 0 {
				break
			}
			if d, _, ok := router.PathDelay(at, louvain, singapore, 25); ok {
				sumMs += 2 * d.Seconds() * 1000
				n++
			}
		}
		if i == 0 && n > 0 {
			isl := sumMs / float64(n)
			b.Logf("Louvain->Singapore RTT: bent-pipe (measured) %.0fms vs ISL path (geometric) %.0fms", bent, isl)
			b.ReportMetric(bent, "bentpipe-rtt-ms")
			b.ReportMetric(isl, "isl-rtt-ms")
		}
	}
}

// --- helpers -----------------------------------------------------------

func medOnLoad(vs []web.VisitResult) float64 {
	var xs []float64
	for _, v := range vs {
		if !v.Failed {
			xs = append(xs, v.OnLoad.Seconds())
		}
	}
	return stats.Median(xs)
}
