package fleet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"starlinkperf/internal/obs"
)

// fidExport is one run's full observability output, byte-compared between
// the fast-forward and the every-probe-emulated oracle: if the closed form
// changed anything observable — a counter, a histogram bucket, a trace
// record, an RTT sample — it shows up here.
type fidExport struct{ metrics, jsonl, binary []byte }

// runFidelity runs c with the fast-forward on, as everywhere outside this
// package, or off: the oracle that fires and emulates every probe.
func runFidelity(t *testing.T, c TrafficConfig, ff bool) (fidExport, *TrafficResult, *Traffic) {
	t.Helper()
	col := obs.NewCollector()
	c.Collector = col
	tr := NewTraffic(c)
	tr.ff = ff
	res := tr.Run()
	return fidExport{col.ExportMetricsJSON(), col.ExportTraceJSONL(), col.ExportTraceBinary()}, res, tr
}

// checkFidelityEquivalence holds one configuration's fast-forwarded run to
// the emulated ground truth: equal results after scrubbing the
// engine-dependent fields, byte-identical observability exports, and every
// event the oracle executed either executed or credited as skipped.
func checkFidelityEquivalence(t *testing.T, c TrafficConfig) {
	t.Helper()
	full, fullRes, fullTr := runFidelity(t, c, false)
	if fullTr.FastForwardStats().Absorbed != 0 || fullTr.EventsSkipped() != 0 {
		t.Fatalf("the oracle fast-forwarded %d probes, skipped %d events; want 0",
			fullTr.FastForwardStats().Absorbed, fullTr.EventsSkipped())
	}
	got, gotRes, gotTr := runFidelity(t, c, true)
	if !reflect.DeepEqual(scrub(gotRes), scrub(fullRes)) {
		t.Errorf("result diverges from full emulation\n got: %+v\nwant: %+v", scrub(gotRes), scrub(fullRes))
	}
	if !bytes.Equal(got.metrics, full.metrics) {
		t.Error("metrics export differs from full emulation")
	}
	if !bytes.Equal(got.jsonl, full.jsonl) {
		t.Error("JSONL trace differs from full emulation")
	}
	if !bytes.Equal(got.binary, full.binary) {
		t.Error("binary trace differs from full emulation")
	}
	if gotTr.FastForwardStats().Absorbed == 0 {
		t.Error("absorbed no probes; the fast-forward never engaged")
	}
	// The whole point: strictly less per-event work, all of it accounted.
	if gotRes.Events >= fullRes.Events {
		t.Errorf("executed %d events, full emulation %d; want fewer", gotRes.Events, fullRes.Events)
	}
	if sum := gotRes.Events + gotTr.EventsSkipped(); sum != fullRes.Events {
		t.Errorf("executed %d + skipped %d = %d events, full emulation executed %d",
			gotRes.Events, gotTr.EventsSkipped(), sum, fullRes.Events)
	}
}

// TestTrafficFidelityModesBitIdentical is the fast-forward's equivalence
// gate: for several seeds and partition counts, it must be bit-identical
// to full emulation on results, metrics and traces.
func TestTrafficFidelityModesBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 42, 20260808} {
		c := testTrafficConfig(seed)
		c.Partitions = 4
		checkFidelityEquivalence(t, c)
	}
	// One shard holding every terminal, and a count that leaves each shard
	// few terminals per gateway replica.
	for _, parts := range []int{1, 8} {
		c := testTrafficConfig(7)
		c.Partitions = parts
		checkFidelityEquivalence(t, c)
	}
}

// TestTrafficFidelityShortInterval stresses the fast-forward's
// eligibility boundaries: at a 20 ms probe interval many terminals have
// RTT >= interval (overlapping probes, never absorbed), others flip
// between absorbable and emulated across epochs as delays change — which
// exercises the clamp-carryover entry check and mid-train re-entry.
func TestTrafficFidelityShortInterval(t *testing.T) {
	c := TrafficConfig{
		Fleet: Config{
			Seed:      11,
			Terminals: 200,
			Horizon:   3 * time.Second,
			Epoch:     time.Second,
		},
		Interval:   20 * time.Millisecond,
		Partitions: 4,
	}
	checkFidelityEquivalence(t, c)

	// Mixed-regime sanity: with RTTs spanning the bent-pipe range, some
	// trains must absorb and some must stay emulated, or the test is not
	// exercising the boundary it claims to.
	_, res, tr := runFidelity(t, c, true)
	ff := tr.FastForwardStats().Absorbed
	if ff == 0 {
		t.Fatal("short-interval run absorbed nothing")
	}
	if fired := res.ProbesSent + res.ProbesSkipped; ff >= fired {
		t.Fatalf("short-interval run absorbed %d of %d fires; want a strict mix of absorbed and emulated", ff, fired)
	}
}
