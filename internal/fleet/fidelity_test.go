package fleet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"starlinkperf/internal/obs"
)

// fidExport is one run's full observability output, byte-compared across
// fidelity modes: if the fast path changed anything observable — a
// counter, a histogram bucket, a trace record, an RTT sample — it shows
// up here.
type fidExport struct{ metrics, jsonl, binary []byte }

func runFidelity(t *testing.T, c TrafficConfig, mode FidelityMode) (fidExport, *TrafficResult, *Traffic) {
	t.Helper()
	col := obs.NewCollector()
	c.Fidelity = mode
	c.Collector = col
	tr := NewTraffic(c)
	res := tr.Run()
	return fidExport{col.ExportMetricsJSON(), col.ExportTraceJSONL(), col.ExportTraceBinary()}, res, tr
}

// checkFidelityEquivalence runs one configuration under all three
// fidelity modes and holds auto and tiers to the full-emulation ground
// truth: equal results after scrubbing the engine-dependent fields, and
// byte-identical observability exports.
func checkFidelityEquivalence(t *testing.T, c TrafficConfig, wantFF bool) {
	t.Helper()
	full, fullRes, fullTr := runFidelity(t, c, FidelityFull)
	if fullTr.FastForwarded() != 0 || fullTr.EventsSkipped() != 0 {
		t.Fatalf("FidelityFull fast-forwarded %d probes, skipped %d events; want 0",
			fullTr.FastForwarded(), fullTr.EventsSkipped())
	}
	for _, mode := range []FidelityMode{FidelityTiers, FidelityAuto} {
		got, gotRes, gotTr := runFidelity(t, c, mode)
		if !reflect.DeepEqual(scrub(gotRes), scrub(fullRes)) {
			t.Errorf("%v: result diverges from full emulation\n got: %+v\nwant: %+v",
				mode, scrub(gotRes), scrub(fullRes))
		}
		if !bytes.Equal(got.metrics, full.metrics) {
			t.Errorf("%v: metrics export differs from full emulation", mode)
		}
		if !bytes.Equal(got.jsonl, full.jsonl) {
			t.Errorf("%v: JSONL trace differs from full emulation", mode)
		}
		if !bytes.Equal(got.binary, full.binary) {
			t.Errorf("%v: binary trace differs from full emulation", mode)
		}
		if mode == FidelityTiers && gotTr.FastForwarded() != 0 {
			t.Errorf("FidelityTiers fast-forwarded %d probes; want 0", gotTr.FastForwarded())
		}
		if mode == FidelityAuto {
			if wantFF && gotTr.FastForwarded() == 0 {
				t.Error("FidelityAuto absorbed no probes; the fast-forward never engaged")
			}
			if wantFF && gotTr.EventsSkipped() == 0 {
				t.Error("FidelityAuto skipped no events")
			}
		}
		// The whole point: lower modes do strictly less per-event work.
		if gotRes.Events >= fullRes.Events {
			t.Errorf("%v executed %d events, full emulation %d; want fewer", mode, gotRes.Events, fullRes.Events)
		}
	}
}

// TestTrafficFidelityModesBitIdentical is the tentpole equivalence gate:
// for several seeds and partition counts, the tiered datapath and the
// analytic fast-forward must be bit-identical to full emulation on
// results, metrics and traces.
func TestTrafficFidelityModesBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 42, 20260808} {
		c := testTrafficConfig(seed)
		c.Partitions = 4
		checkFidelityEquivalence(t, c, true)
	}
	// One partition (no cross edge at all), and a partition count that
	// forces plenty of cross-partition gateway traffic.
	for _, parts := range []int{1, 8} {
		c := testTrafficConfig(7)
		c.Partitions = parts
		checkFidelityEquivalence(t, c, true)
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
	checkFidelityEquivalence(t, c, true)

	// Mixed-regime sanity: with RTTs spanning the bent-pipe range, some
	// trains must absorb and some must stay emulated, or the test is not
	// exercising the boundary it claims to.
	_, res, tr := runFidelity(t, c, FidelityAuto)
	ff := tr.FastForwarded()
	if ff == 0 {
		t.Fatal("short-interval run absorbed nothing")
	}
	if fired := res.ProbesSent + res.ProbesSkipped; ff >= fired {
		t.Fatalf("short-interval run absorbed %d of %d fires; want a strict mix of absorbed and emulated", ff, fired)
	}
}
