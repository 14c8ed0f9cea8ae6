package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/obs"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/web"
)

// These tests pin the observability layer's two contracts: its exports
// are a pure function of (config, seed) — byte-identical across repeated
// runs and across worker counts — and enabling it never perturbs the
// simulation itself.

func latencyWithObs(workers int) (*LatencyData, *obs.Collector) {
	col := obs.NewCollector()
	lat := RunLatencyCampaignParallel(DefaultConfig(), 3, 30*time.Minute, 5*time.Minute,
		Options{Workers: workers, Obs: col})
	return lat, col
}

func TestObsExportsByteIdenticalAcrossRunsAndWorkers(t *testing.T) {
	_, one := latencyWithObs(1)
	_, par := latencyWithObs(raceWorkers)
	_, again := latencyWithObs(raceWorkers)

	metrics := one.ExportMetricsJSON()
	traceJSONL := one.ExportTraceJSONL()
	traceBin := one.ExportTraceBinary()
	if len(metrics) == 0 || len(traceJSONL) == 0 || len(traceBin) == 0 {
		t.Fatalf("empty exports: metrics=%d traceJSONL=%d traceBin=%d bytes",
			len(metrics), len(traceJSONL), len(traceBin))
	}
	for name, other := range map[string]*obs.Collector{"workers": par, "repeat": again} {
		if !bytes.Equal(metrics, other.ExportMetricsJSON()) {
			t.Errorf("%s: metrics JSON differs from the 1-worker run", name)
		}
		if !bytes.Equal(traceJSONL, other.ExportTraceJSONL()) {
			t.Errorf("%s: trace JSONL differs from the 1-worker run", name)
		}
		if !bytes.Equal(traceBin, other.ExportTraceBinary()) {
			t.Errorf("%s: binary trace differs from the 1-worker run", name)
		}
	}
	// The campaign must have actually produced events: probes were sent
	// and the link counters saw them.
	snap := one.Snapshot()
	if snap["probe.echo_sent"] == 0 || snap["net.link.sent"] == 0 {
		t.Errorf("campaign left no metric footprint: %v", snap)
	}
}

// TestObsDoesNotPerturbCampaign is the "one branch when disabled, zero
// behaviour change when enabled" guarantee: the rendered figures of an
// instrumented run match an uninstrumented one byte for byte, and a
// campaign over rated links fires the same events either way.
func TestObsDoesNotPerturbCampaign(t *testing.T) {
	render := func(col *obs.Collector) string {
		lat := RunLatencyCampaignParallel(DefaultConfig(), 2, 30*time.Minute, 5*time.Minute,
			Options{Workers: 1, Obs: col})
		var out strings.Builder
		tb := NewTestbed(DefaultConfig()) // anchor order only
		RenderFigure1(&out, Figure1(lat, tb.Anchors))
		RenderFigure2(&out, Figure2(lat))
		return out.String()
	}
	plain := render(nil)
	observed := render(obs.NewCollector())
	if plain != observed {
		t.Errorf("enabling observability changed campaign output:\n--- without\n%s\n--- with\n%s",
			plain, observed)
	}

	// A speedtest crosses rated links with nothing to decide at the end of
	// serialization (the LAN and terrestrial hops): observing them must
	// not give their packets a second event.
	speedtest := func(col *obs.Collector) (res any, events uint64) {
		job := SweepJob{Name: "speedtest", Cfg: quickConfig(), Run: func(tb *Testbed) any {
			r := tb.RunSpeedtestCampaign(TechStarlink, 1, time.Second)
			events = tb.Sched.Processed
			return r
		}}
		return RunSweep([]SweepJob{job}, Options{Workers: 1, Obs: col})[0].Value, events
	}
	plainRes, plainEvents := speedtest(nil)
	obsRes, obsEvents := speedtest(obs.NewCollector())
	if !reflect.DeepEqual(plainRes, obsRes) || plainEvents != obsEvents {
		t.Errorf("observing a speedtest changed it: %d events, %+v; unobserved %d events, %+v",
			obsEvents, obsRes, plainEvents, plainRes)
	}
}

// TestObservedNetworkReportsEveryLayer holds the one attachment rule: a
// layer is observed iff the network it is built on is. One sweep job per
// campaign family runs on an observed network, and each job's own source
// must carry the keys of every layer it drives — the speedtest's TCP
// connections and selection pings included, which no hand-threaded
// config used to reach.
func TestObservedNetworkReportsEveryLayer(t *testing.T) {
	want := map[string][]string{
		"latency":            {"probe.echo_sent"},
		"speedtest-starlink": {"tcp.cwnd_bytes", "probe.echo_sent"},
		"speedtest-satcom":   {"tcp.cwnd_bytes", "probe.echo_sent", "pep.splits"},
		"web-satcom":         {"tcp.cwnd_bytes", "pep.splits"},
		"wehe":               {"tcp.cwnd_bytes"},
		"h3-down":            {"quic.cwnd_bytes"},
		"middlebox-satcom":   {"pep.splits"},
	}
	jobs := []SweepJob{
		{Name: "latency", Run: func(tb *Testbed) any { return tb.RunLatencyCampaign(time.Hour, 30*time.Minute) }},
		{Name: "speedtest-starlink", Run: func(tb *Testbed) any { return tb.RunSpeedtestCampaign(TechStarlink, 1, time.Second) }},
		{Name: "speedtest-satcom", Run: func(tb *Testbed) any { return tb.RunSpeedtestCampaign(TechSatCom, 1, time.Second) }},
		{Name: "web-satcom", Run: func(tb *Testbed) any { return tb.RunWebCampaign(TechSatCom, 1, time.Second) }},
		{Name: "wehe", Run: func(tb *Testbed) any { return tb.RunWeheAudit(TechStarlink, 1) }},
		{Name: "h3-down", Run: func(tb *Testbed) any { return tb.RunH3Campaign(1, 1<<20, true, time.Second) }},
		{Name: "middlebox-satcom", Run: func(tb *Testbed) any { return tb.RunMiddleboxAudit(TechSatCom) }},
	}
	for i := range jobs {
		jobs[i].Cfg = quickConfig()
	}
	col := obs.NewCollector()
	RunSweep(jobs, Options{Workers: raceWorkers, Obs: col})

	var doc struct {
		Sources map[string]struct {
			Counters   map[string]uint64
			Histograms map[string]struct{ Count uint64 }
		}
	}
	if err := json.Unmarshal(col.ExportMetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		src := obs.ShardSource("sweep/"+job.Name, i)
		reg, ok := doc.Sources[src]
		if !ok {
			t.Errorf("%s: no metrics source", src)
			continue
		}
		for _, key := range append(want[job.Name], "net.link.sent") {
			n, counted := reg.Counters[key]
			if h, ok := reg.Histograms[key]; ok {
				n, counted = h.Count, true
			}
			if !counted || n == 0 {
				t.Errorf("%s: %s = %d (registered %v), want > 0", src, key, n, counted)
			}
		}
	}
}

// TestEuropeanSeriesStableAcrossConstructions is the regression test for
// the map-iteration-order bug: EuropeanSeries merged d.PerAnchor in map
// range order, so equal LatencyData values could yield differently
// ordered series. Fifty constructions with rotated insertion order must
// all merge identically.
func TestEuropeanSeriesStableAcrossConstructions(t *testing.T) {
	anchors := []struct {
		name, region string
	}{
		{"ams1", "NL"}, {"bru1", "BE"}, {"fra1", "DE"}, {"fra2", "DE"},
		{"lon1", "UK"}, {"par1", "FR"}, {"ber1", "DE"}, {"rot1", "NL"},
	}
	build := func(rot int) *LatencyData {
		d := &LatencyData{
			PerAnchor: make(map[string]*stats.Series),
			Regions:   make(map[string]string),
		}
		for i := range anchors {
			a := anchors[(i+rot)%len(anchors)]
			ser := &stats.Series{}
			for s := 0; s < 5; s++ {
				// Deliberately identical timestamps across anchors: ties
				// are where range-order leaks into the merged series.
				ser.Add(time.Duration(s)*time.Minute, float64(len(a.name))+float64(s))
			}
			d.PerAnchor[a.name] = ser
			d.Regions[a.name] = a.region
		}
		return d
	}
	want := build(0).EuropeanSeries().Samples()
	if len(want) != 6*5 {
		t.Fatalf("merged %d samples, want 30 (6 EU anchors x 5)", len(want))
	}
	for i := 1; i < 50; i++ {
		got := build(i).EuropeanSeries().Samples()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("construction %d merged a different series", i)
		}
	}
}

// TestMakeFigure6OrderStable does the same for the QoE figure assembly:
// equal visit maps must render identically no matter the map's internal
// order.
func TestMakeFigure6OrderStable(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	vs := tb.runWebVisits(TechWired, 0, 2, time.Second)
	if len(vs) == 0 {
		t.Fatal("no web visits completed")
	}
	render := func() string {
		f := MakeFigure6(map[string][]web.VisitResult{"starlink": vs, "wired": vs, "satcom": vs})
		var out strings.Builder
		RenderFigure6(&out, f)
		return out.String()
	}
	want := render()
	for i := 0; i < 20; i++ {
		if got := render(); got != want {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
}
