package measure_test

import (
	"reflect"
	"testing"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/netem"
)

// Every echo record the latency campaign draws goes back to its prober's
// freelist: Gets = Puts. The
// prober core.RunLatencyCampaign builds is its own, so the pool is read on
// a twin of the campaign — same testbed seed, node, targets, cadence and
// drain — that must report exactly what RunLatencyCampaign reports.
func TestLatencyCampaignEchoPoolConservation(t *testing.T) {
	const dur, interval = 12 * time.Hour, 5 * time.Minute
	for _, seed := range []uint64{1, 7} {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		want := core.NewTestbed(cfg).RunLatencyCampaign(dur, interval)

		tb := core.NewTestbed(cfg)
		p := measure.NewProber(tb.PCStarlink)
		var sent, lost int
		rtts := make(map[netem.Addr][]float64)
		end := tb.Sched.Now().Add(dur)
		p.Monitor(tb.AnchorAddrs(), interval, end, func(r measure.PingResult) {
			sent++
			if !r.OK {
				lost++
				return
			}
			rtts[r.Target] = append(rtts[r.Target], r.RTT.Seconds()*1000)
		})
		tb.Sched.RunUntil(end.Add(time.Minute))
		tb.PCStarlink.Unbind(netem.ProtoICMP, 0)

		if sent != want.Sent || lost != want.Lost {
			t.Fatalf("seed %d: twin sent %d lost %d, RunLatencyCampaign %d and %d", seed, sent, lost, want.Sent, want.Lost)
		}
		for _, a := range tb.Anchors {
			var got []float64
			for _, smp := range want.PerAnchor[a.Name].Samples() {
				got = append(got, smp.Value)
			}
			if !reflect.DeepEqual(got, rtts[a.Node.Addr()]) {
				t.Fatalf("seed %d: twin RTTs to %s differ from RunLatencyCampaign's", seed, a.Name)
			}
		}
		if lost == 0 {
			t.Errorf("seed %d: no echo timed out, the campaign does not recycle an expired record", seed)
		}
		st := measure.EchoPoolStats(p)
		if st.Gets != uint64(sent) || st.Gets != st.Puts {
			t.Errorf("seed %d: %d echoes, echo records %+v: want Gets = echoes = Puts", seed, sent, st)
		}
		if st.Hits == 0 || st.Gets-st.Hits > uint64(len(tb.Anchors)) {
			t.Errorf("seed %d: %d echo records made for %d anchors: %+v", seed, st.Gets-st.Hits, len(tb.Anchors), st)
		}
	}
}
