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

// runTrafficSingleScheduler is the shards' oracle: the same builder wires
// the whole scenario as one shard — every terminal on one scheduler, one
// timer heap, one set of gateway nodes — and a plain loop advances it from
// epoch to epoch, with no fan-out and nothing to merge. The loop uses
// RunBefore, the same half-open window as Run, so an event at exactly an
// epoch boundary observes the reassigned fleet in both.
func runTrafficSingleScheduler(cfg TrafficConfig) *TrafficResult {
	cfg.Partitions = 1
	tr := NewTraffic(cfg)
	f := tr.fleet
	defer f.Close()
	sched := tr.parts[0].sched
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

// TestTrafficShardsMatchSingleScheduler holds the independent shards to
// the single-scheduler oracle: for several seeds and partition counts, the
// merged result — probe counts, per-region RTT quantiles, the embedded
// fleet campaign — must be exactly equal.
func TestTrafficShardsMatchSingleScheduler(t *testing.T) {
	for _, seed := range []uint64{1, 42, 20260808} {
		ref := runTrafficSingleScheduler(testTrafficConfig(seed))
		if ref.ProbesSent == 0 || ref.ProbesRecv == 0 {
			t.Fatalf("seed %d: reference run sent %d, received %d probes", seed, ref.ProbesSent, ref.ProbesRecv)
		}
		for _, parts := range []int{1, 2, 4, 8, 16} {
			c := testTrafficConfig(seed)
			c.Partitions = parts
			got := RunTraffic(c)
			if !reflect.DeepEqual(scrub(got), scrub(ref)) {
				t.Errorf("seed %d, %d partitions: sharded result diverges from reference\n got: %+v\nwant: %+v",
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
// Run with one partition produces byte-for-byte the same exports as the
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
		t.Error("one-partition metrics differ from reference path")
	}
	if !bytes.Equal(gotJ, refJ) {
		t.Error("one-partition trace differs from reference path")
	}
}

// TestTrafficMergedMetricsPartitionInvariant pins the merged metrics to
// the partition count: every link a probe crosses is counted inside the
// probe's own shard, at the instant it happens, so the sums cannot depend
// on where the fleet was cut. (A cross-partition link counted a packet as
// delivered when it staged it, so net.link.delivered grew with the number
// of probes in flight across a boundary at the horizon.)
func TestTrafficMergedMetricsPartitionInvariant(t *testing.T) {
	merged := func(seed uint64, parts int) []byte {
		col := obs.NewCollector()
		c := testTrafficConfig(seed)
		c.Fleet.Terminals = 2000
		c.Partitions = parts
		c.Collector = col
		RunTraffic(c)
		m := col.ExportMetricsJSON()
		i := bytes.Index(m, []byte(`,"sources":`))
		if i < 0 {
			t.Fatal("metrics export has no sources section")
		}
		return m[:i]
	}
	for _, seed := range []uint64{1, 42, 20260808} {
		base := merged(seed, 1)
		for _, parts := range []int{2, 4, 16} {
			if got := merged(seed, parts); !bytes.Equal(got, base) {
				t.Errorf("seed %d: merged metrics differ between 1 and %d partitions\n got: %s\nwant: %s", seed, parts, got, base)
			}
		}
	}
}

// TestTrafficLargeShard builds and runs one shard past the 65 536
// terminals a 10.p.0.0/16 range could address: shard-local addresses have
// 24 bits for the terminal index.
func TestTrafficLargeShard(t *testing.T) {
	const terminals = 70000
	res := RunTraffic(TrafficConfig{
		Fleet:      Config{Seed: 3, Terminals: terminals, Horizon: 2 * time.Second, Epoch: time.Second},
		Partitions: 1,
	})
	if res.Terminals != terminals || res.Partitions != 1 {
		t.Fatalf("built %d terminals in %d partitions, want %d in 1", res.Terminals, res.Partitions, terminals)
	}
	// Two probes per terminal, each sent or skipped; all but those still
	// in flight at the horizon answered.
	if fired := res.ProbesSent + res.ProbesSkipped; fired != 2*terminals {
		t.Errorf("%d probes fired, want %d", fired, 2*terminals)
	}
	if res.ProbesRecv == 0 || res.ProbesRecv > res.ProbesSent {
		t.Errorf("received %d of %d probes", res.ProbesRecv, res.ProbesSent)
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
		// Cells must never split: every partition boundary is a cell
		// boundary of the cell-sorted terminal array.
		cellEdge := make(map[int32]bool, len(f.cellStart))
		for _, s := range f.cellStart {
			cellEdge[s] = true
		}
		for p, s := range pm.TermStart {
			if !cellEdge[s] {
				t.Fatalf("parts=%d: partition %d starts at terminal %d, inside cell %d",
					parts, p, s, f.cell[s])
			}
		}
	}
}
