package measure_test

import (
	"testing"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/measure"
)

// A session's capture and RTT log are made once, at dial, big enough for
// everything the session carries: neither may regrow. Checked after every
// transfer of a bulk campaign shaped like the benchmark's — downloads and
// uploads over lossy Starlink, a download over the wired path — and after a
// message session each way, the jittered length the benchmark runs.
func TestSessionLogsNeverRegrow(t *testing.T) {
	const size = 16 << 20
	check := func(what string, s measure.Session, msgs, msgBytes int) {
		t.Helper()
		packets, samples := measure.LogSizes(msgs, msgBytes)
		rec, smp := s.ReceiverCapture.Received, s.RTTs.Samples
		if len(rec) == 0 || len(smp) == 0 {
			t.Fatalf("%s: %d packets and %d RTT samples logged", what, len(rec), len(smp))
		}
		if cap(rec) != packets || cap(smp) != samples {
			t.Errorf("%s: logs regrew: capture %d of %d made, %d now; RTT log %d of %d made, %d now",
				what, len(rec), packets, cap(rec), len(smp), samples, cap(smp))
		}
	}
	for _, seed := range []uint64{1, 7} {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		tb := core.NewTestbed(cfg)
		for _, camp := range []struct {
			what string
			run  func() *core.H3Campaign
		}{
			{"h3 down", func() *core.H3Campaign { return tb.RunH3Campaign(2, size, true, 20*time.Second) }},
			{"h3 up", func() *core.H3Campaign { return tb.RunH3Campaign(2, size, false, 20*time.Second) }},
			{"h3 wired", func() *core.H3Campaign {
				return tb.RunH3CampaignFrom(tb.PCWired, 1, size, true, 5*time.Second, tb.QUICConf)
			}},
		} {
			c := camp.run()
			var lost uint64
			for i, r := range c.Records {
				if !r.Result.Completed {
					t.Fatalf("seed %d %s %d: incomplete", seed, camp.what, i)
				}
				lost += r.Loss.PacketsLost
				check(camp.what, r.Result.Session, 1, size)
			}
			if camp.what != "h3 wired" && lost == 0 {
				t.Errorf("seed %d %s: no packet lost, the path does not retransmit", seed, camp.what)
			}
		}
		const rate, dur = 25, 59981 * time.Millisecond
		for _, download := range []bool{true, false} {
			var got measure.Session
			measure.MessageSession(tb.PCStarlink, tb.H3Server, download, dur, tb.QUICConf, func(s measure.Session) { got = s })
			tb.Sched.RunFor(dur + time.Minute)
			if got.Client == nil {
				t.Fatalf("seed %d: message session download=%v did not report", seed, download)
			}
			check("messages", got, int(dur/(time.Second/rate)), 15000)
		}
	}
}
