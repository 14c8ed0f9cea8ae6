package fleet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// testTrafficConfig is the small-but-global scenario the equivalence
// suite runs: enough terminals to populate several partitions on every
// continent, three epochs, and a few probes per terminal.
func testTrafficConfig(seed uint64) TrafficConfig {
	return TrafficConfig{
		Fleet: Config{
			Seed:      seed,
			Terminals: 400,
			Horizon:   6 * time.Second,
			Epoch:     2 * time.Second,
		},
		Interval: time.Second,
	}
}

// scrub zeroes the fields that legitimately depend on the execution
// engine (window count, event count) so the rest can be compared exactly.
func scrub(r *TrafficResult) *TrafficResult {
	c := *r
	c.Windows = 0
	c.Events = 0
	c.Partitions = 0
	return &c
}

// runTrafficSingleScheduler is the PDES engine's oracle: the same builder
// wires the whole scenario as one partition onto one plain scheduler —
// seeded like the driver's partition 0 — and a plain loop advances it from
// epoch to epoch. No driver, no windows, no cross edges. The loop uses
// RunBefore, the same half-open window as the driver, so an event at
// exactly an epoch boundary observes the reassigned fleet in both.
func runTrafficSingleScheduler(cfg TrafficConfig) *TrafficResult {
	cfg.Partitions = 1
	tr := prepareTraffic(cfg)
	f := tr.fleet
	defer f.Close()
	sched := sim.NewScheduler(sim.DeriveSeed(f.cfg.Seed, "pdes/partition", 0))
	tr.build([]*sim.Scheduler{sched})
	epochs := tr.epochs()
	for e := 0; e < epochs; e++ {
		at := sim.Time(int64(e) * int64(f.cfg.Epoch))
		sched.RunBefore(at)
		f.RunEpoch(e, at)
	}
	sched.RunBefore(tr.horizon)
	res := tr.result(f.result(epochs))
	res.Events = sched.Processed
	return res
}

// TestTrafficReferenceVsPDES holds the PDES engine to the single-
// scheduler oracle: for several seeds and partition counts, the merged
// result — probe counts, per-region RTT quantiles, the embedded fleet
// campaign — must be exactly equal.
func TestTrafficReferenceVsPDES(t *testing.T) {
	for _, seed := range []uint64{1, 42, 20260808} {
		ref := runTrafficSingleScheduler(testTrafficConfig(seed))
		if ref.ProbesSent == 0 || ref.ProbesRecv == 0 {
			t.Fatalf("seed %d: reference run sent %d, received %d probes", seed, ref.ProbesSent, ref.ProbesRecv)
		}
		for _, parts := range []int{1, 2, 4, 8} {
			c := testTrafficConfig(seed)
			c.Partitions = parts
			got := RunTraffic(c)
			if !reflect.DeepEqual(scrub(got), scrub(ref)) {
				t.Errorf("seed %d, %d partitions: PDES result diverges from reference\n got: %+v\nwant: %+v",
					seed, parts, scrub(got), scrub(ref))
			}
		}
	}
}

// TestTrafficWorkerInvariance byte-diffs the full observability exports —
// merged and per-partition metrics, both trace encodings — across worker
// counts at a fixed partition count. Workers must be invisible.
func TestTrafficWorkerInvariance(t *testing.T) {
	type export struct{ metrics, jsonl, binary []byte }
	run := func(seed uint64, workers int) (export, *TrafficResult) {
		col := obs.NewCollector()
		c := testTrafficConfig(seed)
		c.Partitions = 4
		c.ScenarioWorkers = workers
		c.Collector = col
		res := RunTraffic(c)
		return export{col.ExportMetricsJSON(), col.ExportTraceJSONL(), col.ExportTraceBinary()}, res
	}
	for _, seed := range []uint64{1, 42, 20260808} {
		base, baseRes := run(seed, 1)
		for _, workers := range []int{2, 4, 8} {
			got, gotRes := run(seed, workers)
			if !bytes.Equal(got.metrics, base.metrics) {
				t.Errorf("seed %d: metrics export differs between 1 and %d workers", seed, workers)
			}
			if !bytes.Equal(got.jsonl, base.jsonl) {
				t.Errorf("seed %d: JSONL trace differs between 1 and %d workers", seed, workers)
			}
			if !bytes.Equal(got.binary, base.binary) {
				t.Errorf("seed %d: binary trace differs between 1 and %d workers", seed, workers)
			}
			if !reflect.DeepEqual(gotRes, baseRes) {
				t.Errorf("seed %d: result differs between 1 and %d workers", seed, workers)
			}
		}
	}
}

// TestTrafficOnePartitionByteIdentical pins the strongest equivalence:
// PDES with one partition produces byte-for-byte the same exports as the
// single-scheduler oracle — same events, same order, same trace stream —
// because the builder, seeds and half-open window semantics are shared.
func TestTrafficOnePartitionByteIdentical(t *testing.T) {
	run := func(runTraffic func(TrafficConfig) *TrafficResult) (m, j []byte) {
		col := obs.NewCollector()
		c := testTrafficConfig(7)
		c.Partitions = 1
		c.Collector = col
		runTraffic(c)
		return col.ExportMetricsJSON(), col.ExportTraceJSONL()
	}
	refM, refJ := run(runTrafficSingleScheduler)
	gotM, gotJ := run(RunTraffic)
	if !bytes.Equal(gotM, refM) {
		t.Error("one-partition PDES metrics differ from reference path")
	}
	if !bytes.Equal(gotJ, refJ) {
		t.Error("one-partition PDES trace differs from reference path")
	}
}

// TestTrafficRTTPlausibility checks the emulated datapath reproduces the
// paper's latency regime: bent-pipe medians in the tens of milliseconds,
// and the packet-level RTT close to the fleet campaign's analytic RTT.
func TestTrafficRTTPlausibility(t *testing.T) {
	c := testTrafficConfig(3)
	c.Partitions = 4
	res := RunTraffic(c)
	if res.ProbesRecv == 0 {
		t.Fatal("no probes received")
	}
	for _, rr := range res.Regions {
		if rr.Recv == 0 {
			continue
		}
		if rr.RTTP50Ms < 5 || rr.RTTP50Ms > 120 {
			t.Errorf("%s: packet RTT p50 %.1f ms outside the bent-pipe regime", rr.Region, rr.RTTP50Ms)
		}
		var fl *RegionResult
		for i := range res.Fleet.Regions {
			if res.Fleet.Regions[i].Region == rr.Region {
				fl = &res.Fleet.Regions[i]
			}
		}
		if fl == nil || fl.Samples == 0 {
			continue
		}
		// Same 0.5 ms histogram geometry on both sides; the probe and the
		// analytic campaign sample the same delays at different instants
		// within each epoch, so medians agree to a few buckets.
		if d := rr.RTTP50Ms - fl.LatencyP50Ms; d > 2.5 || d < -2.5 {
			t.Errorf("%s: packet RTT p50 %.1f ms vs analytic %.1f ms", rr.Region, rr.RTTP50Ms, fl.LatencyP50Ms)
		}
	}
}

// TestPartitionTerminals pins the partition map's structural invariants
// for a spread of partition counts.
func TestPartitionTerminals(t *testing.T) {
	f := New(Config{Seed: 9, Terminals: 500, Horizon: time.Second, Epoch: time.Second})
	for _, parts := range []int{1, 2, 3, 7, 16, 255} {
		pm := f.PartitionTerminals(parts)
		if pm.Parts < 1 || pm.Parts > parts {
			t.Fatalf("parts=%d: got %d partitions", parts, pm.Parts)
		}
		if len(pm.TermStart) != pm.Parts+1 {
			t.Fatalf("parts=%d: CSR length %d for %d partitions", parts, len(pm.TermStart), pm.Parts)
		}
		if pm.TermStart[0] != 0 || int(pm.TermStart[pm.Parts]) != f.Terminals() {
			t.Fatalf("parts=%d: CSR does not span the fleet: %v", parts, pm.TermStart)
		}
		for p := 0; p < pm.Parts; p++ {
			if pm.TermStart[p] >= pm.TermStart[p+1] {
				t.Fatalf("parts=%d: empty partition %d: %v", parts, p, pm.TermStart)
			}
		}
		// Cells must never split: every terminal's cell maps back to the
		// partition owning the terminal.
		for i := 0; i < f.Terminals(); i++ {
			if got, want := int(pm.CellPart[f.cell[i]]), pm.PartitionOf(i); got != want {
				t.Fatalf("parts=%d: terminal %d in cell %d: cell says partition %d, CSR says %d",
					parts, i, f.cell[i], got, want)
			}
		}
	}
}
