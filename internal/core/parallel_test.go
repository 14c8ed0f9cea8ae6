package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/fleet"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/sim"
)

// The tests in this file pin down the two contracts of the sharded
// campaign driver: (1) the same seed always reproduces the same campaign
// bit-for-bit, and (2) the worker count never changes results, only
// wall-clock time. They run with explicit Workers > 1 so `go test -race`
// exercises the concurrent path even on a single-CPU machine.

const raceWorkers = 4

// quickConfig returns DefaultConfig with a shortened speedtest so the
// invariance tests stay fast under the race detector.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Speedtest = measure.DefaultSpeedtestConfig()
	cfg.Speedtest.Warmup = 500 * time.Millisecond
	cfg.Speedtest.Window = 2 * time.Second
	return cfg
}

// shardInfo is what one runSharded shard saw.
type shardInfo struct {
	First, Count int
	Seed         uint64
}

func shardInfos(opts Options, n, per int) []shardInfo {
	cfg := DefaultConfig()
	cfg.Seed = 7
	return runSharded(cfg, opts, "fam", n, per, func(tb *Testbed, first, count int) []shardInfo {
		return []shardInfo{{first, count, tb.Cfg.Seed}}
	})
}

func TestRunShardsOrderSeedsProgress(t *testing.T) {
	opts := Options{Workers: raceWorkers}
	var dones []int
	opts.Progress = func(done, total int) {
		if total != 6 {
			t.Errorf("progress total = %d, want 6", total)
		}
		dones = append(dones, done)
	}
	got := shardInfos(opts, 11, 2)
	if len(got) != 6 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[uint64]bool{}
	for i, g := range got {
		want := 2
		if i == 5 {
			want = 1 // the last shard takes the remainder
		}
		if g.First != 2*i || g.Count != want {
			t.Errorf("slot %d holds repetitions %d+%d: results must concatenate in shard order, %d a shard", i, g.First, g.Count, 2)
		}
		if g.Seed != sim.DeriveSeed(7, "fam", i) {
			t.Errorf("shard %d built from seed %#x, want DeriveSeed(7, fam, %d)", i, g.Seed, i)
		}
		if seen[g.Seed] {
			t.Errorf("duplicate shard seed %#x", g.Seed)
		}
		seen[g.Seed] = true
	}
	// Progress is serialized and strictly increasing 1..total.
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress sequence %v, want 1..6", dones)
		}
	}
	// The plan is a pure function of (base, family, n, per): one worker,
	// and the base seed given through Options instead of Config, yield the
	// same slice.
	if again := shardInfos(Options{Workers: 1, Seed: 7}, 11, 2); !reflect.DeepEqual(got, again) {
		t.Error("shard plan differs between runs with the same base seed")
	}
	if none := shardInfos(opts, 0, 2); none != nil {
		t.Errorf("zero repetitions ran %d shards", len(none))
	}
}

// A repetition whose callback never fires must end the campaign at its
// budget with the results so far — not hang, and not skip ahead.
func TestRepeatStopsAtBudget(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	var started []int
	got := repeat(tb, 3, 5, time.Second, time.Minute, func(i int, done func(int)) {
		started = append(started, i)
		if i == 5 {
			return // stuck: never reports
		}
		tb.Sched.After(time.Second, func() { done(10 * i) })
	})
	if !reflect.DeepEqual(got, []int{30, 40}) || !reflect.DeepEqual(started, []int{3, 4, 5}) {
		t.Errorf("results %v from repetitions %v, want [30 40] from [3 4 5]", got, started)
	}
	if now := tb.Sched.Now(); now != sim.Time(time.Minute) {
		t.Errorf("campaign ended at %v, want the one-minute budget", now)
	}
	// noGap chains inside the callback: same results, no event between.
	before := tb.Sched.Processed
	got = repeat(tb, 0, 3, noGap, time.Second, func(i int, done func(int)) { done(i) })
	if !reflect.DeepEqual(got, []int{0, 1, 2}) || tb.Sched.Processed != before {
		t.Errorf("noGap: results %v, %d events", got, tb.Sched.Processed-before)
	}
}

// TestGoldenDeterminismSameSeed is the golden determinism check: two
// testbeds built from the same DefaultConfig produce byte-identical
// rendered figure output.
func TestGoldenDeterminismSameSeed(t *testing.T) {
	render := func() string {
		tb := NewTestbed(quickConfig())
		lat := tb.RunLatencyCampaign(time.Hour, 5*time.Minute)
		st := tb.RunSpeedtestCampaign(TechStarlink, 1, 10*time.Minute)
		var out strings.Builder
		RenderFigure1(&out, Figure1(lat, tb.Anchors))
		RenderFigure2(&out, Figure2(lat))
		for _, r := range st {
			fmt.Fprintf(&out, "%s %v %v %v\n", r.Server, r.DownloadMbps, r.UploadMbps, r.PingRTT)
		}
		return out.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("same seed, different output:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestLatencyParallelWorkerInvariance(t *testing.T) {
	cfg := DefaultConfig()
	run := func(workers int) *LatencyData {
		return RunLatencyCampaignParallel(cfg, 3, 30*time.Minute, 5*time.Minute, Options{Workers: workers})
	}
	seq := run(1)
	par := run(raceWorkers)
	if seq.Sent == 0 || seq.Lost < 0 {
		t.Fatalf("empty campaign: sent=%d", seq.Sent)
	}
	if seq.Sent != par.Sent || seq.Lost != par.Lost {
		t.Errorf("counters differ: 1 worker %d/%d vs %d workers %d/%d",
			seq.Sent, seq.Lost, raceWorkers, par.Sent, par.Lost)
	}
	if !reflect.DeepEqual(seq.Regions, par.Regions) {
		t.Error("regions differ across worker counts")
	}
	for name, ser := range seq.PerAnchor {
		pser := par.PerAnchor[name]
		if pser == nil {
			t.Fatalf("anchor %s missing from parallel result", name)
		}
		if !reflect.DeepEqual(ser.Samples(), pser.Samples()) {
			t.Errorf("anchor %s: sample series differ between 1 and %d workers", name, raceWorkers)
		}
	}
	// Rendered figures must match byte for byte.
	renderAll := func(d *LatencyData) string {
		var out strings.Builder
		RenderFigure1(&out, Figure1(d, d.Anchors))
		RenderFigure2(&out, Figure2(d))
		return out.String()
	}
	if a, b := renderAll(seq), renderAll(par); a != b {
		t.Errorf("rendered output differs:\n--- 1 worker\n%s\n--- %d workers\n%s", a, raceWorkers, b)
	}
}

func TestSpeedtestParallelWorkerInvariance(t *testing.T) {
	cfg := quickConfig()
	seq := RunSpeedtestCampaignParallel(cfg, TechStarlink, 3, 10*time.Minute, Options{Workers: 1})
	par := RunSpeedtestCampaignParallel(cfg, TechStarlink, 3, 10*time.Minute, Options{Workers: raceWorkers})
	if len(seq) != 3 || len(par) != 3 {
		t.Fatalf("lengths: seq=%d par=%d, want 3", len(seq), len(par))
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("speedtest results differ:\n1 worker: %+v\n%d workers: %+v", seq, raceWorkers, par)
	}
}

func TestWebParallelWorkerInvariance(t *testing.T) {
	cfg := DefaultConfig()
	seq := RunWebCampaignParallel(cfg, TechWired, 12, time.Second, Options{Workers: 1})
	par := RunWebCampaignParallel(cfg, TechWired, 12, time.Second, Options{Workers: raceWorkers})
	if len(seq) == 0 {
		t.Fatal("no visits completed")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("web visit results differ between 1 and %d workers", raceWorkers)
	}
	// The sharded campaign must walk the sequential site cycle: its second
	// shard starts at visit 10, where one testbed running all 12 would be.
	one := NewTestbed(cfg).RunWebCampaign(TechWired, 12, time.Second)
	if len(one) != len(seq) {
		t.Fatalf("%d sharded visits, %d sequential", len(seq), len(one))
	}
	for i, v := range seq {
		if v.Site.Rank != one[i].Site.Rank {
			t.Errorf("visit %d hit site rank %d, the sequential campaign's hit %d", i, v.Site.Rank, one[i].Site.Rank)
		}
	}
}

func TestH3ParallelWorkerInvariance(t *testing.T) {
	cfg := DefaultConfig()
	run := func(workers int) *H3Campaign {
		return RunH3CampaignParallel(cfg, 2, 2<<20, true, 5*time.Second, Options{Workers: workers})
	}
	seq := run(1)
	par := run(raceWorkers)
	if len(seq.Records) != 2 || len(par.Records) != 2 {
		t.Fatalf("records: seq=%d par=%d, want 2", len(seq.Records), len(par.Records))
	}
	if !reflect.DeepEqual(seq.Goodputs(), par.Goodputs()) {
		t.Errorf("goodputs differ: %v vs %v", seq.Goodputs(), par.Goodputs())
	}
	if !reflect.DeepEqual(seq.RTTSamplesMs(), par.RTTSamplesMs()) {
		t.Error("RTT sample series differ between worker counts")
	}
	if seq.LossRatio() != par.LossRatio() {
		t.Errorf("loss ratios differ: %v vs %v", seq.LossRatio(), par.LossRatio())
	}
	if !reflect.DeepEqual(seq.BurstLengths(), par.BurstLengths()) {
		t.Error("burst lengths differ between worker counts")
	}
}

func TestMessagesParallelWorkerInvariance(t *testing.T) {
	cfg := DefaultConfig()
	run := func(workers int) *MsgCampaign {
		return RunMessagesCampaignParallel(cfg, 3, 30*time.Second, false, Options{Workers: workers})
	}
	seq := run(1)
	par := run(raceWorkers)
	if len(seq.RTTsMs) == 0 {
		t.Fatal("no message RTT samples")
	}
	if !reflect.DeepEqual(seq.RTTsMs, par.RTTsMs) {
		t.Error("message RTTs differ between worker counts")
	}
	if seq.LossRatio() != par.LossRatio() {
		t.Error("message loss ratios differ between worker counts")
	}
}

func TestSweepWorkerInvariance(t *testing.T) {
	jobs := func() []SweepJob {
		return []SweepJob{
			{Name: "latency", Cfg: DefaultConfig(), Run: func(tb *Testbed) any {
				lat := tb.RunLatencyCampaign(30*time.Minute, 5*time.Minute)
				return lat.Sent
			}},
			{Name: "middlebox-starlink", Cfg: DefaultConfig(), Run: func(tb *Testbed) any {
				a := tb.RunMiddleboxAudit(TechStarlink)
				var out strings.Builder
				RenderMiddleboxAudit(&out, "starlink", a)
				return out.String()
			}},
			{Name: "speedtest", Cfg: quickConfig(), Run: func(tb *Testbed) any {
				return tb.RunSpeedtestCampaign(TechStarlink, 1, time.Minute)
			}},
		}
	}
	seq := RunSweep(jobs(), Options{Workers: 1})
	par := RunSweep(jobs(), Options{Workers: raceWorkers})
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("sweep results differ:\n1 worker: %+v\n%d workers: %+v", seq, raceWorkers, par)
	}
	for i, j := range jobs() {
		if seq[i].Name != j.Name {
			t.Errorf("result %d is %q, want job order preserved (%q)", i, seq[i].Name, j.Name)
		}
	}
}

// Every fork/join pool stops its goroutines when its owner is done: a
// sweep, a packet-level fleet scenario, and a fleet built with several
// workers once it is closed.
func TestPoolsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	RunSweep([]SweepJob{
		{Name: "a", Cfg: DefaultConfig(), Run: func(*Testbed) any { return nil }},
		{Name: "b", Cfg: DefaultConfig(), Run: func(*Testbed) any { return nil }},
	}, Options{Workers: raceWorkers})
	waitGoroutines(t, base, "RunSweep")

	RunFleetTraffic(fleet.TrafficConfig{
		Fleet:      fleet.Config{Terminals: 400, Horizon: 4 * time.Second, Epoch: 2 * time.Second},
		Partitions: 4,
	}, Options{Workers: raceWorkers, ScenarioWorkers: raceWorkers, Seed: 11})
	waitGoroutines(t, base, "Traffic.Run")

	f := fleet.New(fleet.Config{Terminals: 5000, Horizon: 30 * time.Second, Workers: raceWorkers})
	f.Run()
	f.Close()
	waitGoroutines(t, base, "Fleet.Close")
}

// waitGoroutines fails t unless the goroutine count drops to at most base
// within a second of what returned: an exiting goroutine may still be
// counted for a moment.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, %d before", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
