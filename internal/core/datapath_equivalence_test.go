package core

import (
	"reflect"
	"testing"
	"time"

	"starlinkperf/internal/quic"
)

// campaignFingerprint runs a scaled-down slice of every campaign family
// on one testbed and returns the full metrics structs plus the exact
// number of events the scheduler executed.
type campaignFingerprint struct {
	Lat       *LatencyData
	H3        []h3Fingerprint
	Msg       *MsgCampaign
	Speedtest any
	Web       any
	Processed uint64
}

// h3Fingerprint is an H3Record with the live *quic.Connection endpoints
// replaced by their value-only Stats. reflect.DeepEqual declares any
// non-nil func field unequal, and the connections reach the scheduler's
// pooled timers (whose callbacks are funcs), so the raw record can never
// compare equal even when every measured value matches. Every metric the
// campaigns report is retained here.
type h3Fingerprint struct {
	Record      H3Record
	ClientStats quic.Stats
	ServerStats quic.Stats
}

// noRecycleTestbed builds the use-after-release oracle: the same testbed
// on a network that never reuses a packet, ICMP body, TCP segment or QUIC
// wire buffer (netem.Network.DisableRecycling). The switch is flipped
// before any traffic flows; no Config field reaches it.
func noRecycleTestbed(cfg Config) *Testbed {
	tb := NewTestbed(cfg)
	tb.Net.DisableRecycling()
	return tb
}

// datapathFingerprint runs the campaign slice with recycling on or off.
func datapathFingerprint(seed uint64, recycle bool) campaignFingerprint {
	cfg := DefaultConfig()
	cfg.Seed = seed
	build := NewTestbed
	if !recycle {
		build = noRecycleTestbed
	}
	tb := build(cfg)
	fp := campaignFingerprint{Lat: tb.RunLatencyCampaign(2*time.Hour, 15*time.Minute)}
	h3 := tb.RunH3Campaign(1, 2<<20, true, 5*time.Second)
	for _, r := range h3.Records {
		clean := h3Fingerprint{Record: r, ClientStats: r.Result.Client.Stats, ServerStats: r.Result.Server.Stats}
		clean.Record.Result.Client, clean.Record.Result.Server = nil, nil
		fp.H3 = append(fp.H3, clean)
	}
	fp.Msg = tb.RunMessagesCampaign(1, 20*time.Second, true)
	fp.Speedtest = tb.RunSpeedtestCampaign(TechStarlink, 1, time.Minute)
	fp.Web = tb.RunWebCampaign(TechStarlink, 2, time.Second)
	fp.Processed = tb.Sched.Processed
	return fp
}

// Recycling must be invisible: a campaign over pooled packets, segments
// and wire buffers, every one scribbled or zeroed on reuse, must produce
// the same event count and bit-identical metrics in every campaign family
// as one that never reuses anything. A component that reads a packet or
// payload after its terminal point diverges here.
func TestDatapathCampaignEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		fast := datapathFingerprint(seed, true)
		ref := datapathFingerprint(seed, false)
		if fast.Processed != ref.Processed {
			t.Errorf("seed %d: pooled datapath ran %d events, no-recycle %d",
				seed, fast.Processed, ref.Processed)
		}
		if !reflect.DeepEqual(fast.Lat, ref.Lat) {
			t.Errorf("seed %d: latency campaign metrics diverge with recycling off", seed)
		}
		if !reflect.DeepEqual(fast.H3, ref.H3) {
			t.Errorf("seed %d: H3 campaign metrics diverge with recycling off", seed)
		}
		if !reflect.DeepEqual(fast.Msg, ref.Msg) {
			t.Errorf("seed %d: messages campaign metrics diverge with recycling off", seed)
		}
		if !reflect.DeepEqual(fast.Speedtest, ref.Speedtest) {
			t.Errorf("seed %d: speedtest campaign metrics diverge with recycling off", seed)
		}
		if !reflect.DeepEqual(fast.Web, ref.Web) {
			t.Errorf("seed %d: web campaign metrics diverge with recycling off", seed)
		}
	}
}

// Pooling is per-network and each parallel shard owns its network, so
// worker count must not leak into results: the same campaign sharded
// over 1 and 8 workers must agree byte for byte.
func TestDatapathParallelWorkerEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	run := func(workers int) *LatencyData {
		return RunLatencyCampaignParallel(cfg, 4, 30*time.Minute, 15*time.Minute,
			Options{Workers: workers, Seed: cfg.Seed})
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Error("1-worker and 8-worker campaigns diverge")
	}
}
