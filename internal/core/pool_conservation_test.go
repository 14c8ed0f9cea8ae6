package core

import (
	"reflect"
	"testing"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/tcpsim"
	"starlinkperf/internal/wehe"
)

// Every wire buffer a QUIC endpoint hands to the datapath comes back once
// its packet reached a terminal point — delivered, dropped by a queue, a
// loss model or an outage — unless a second packet started sharing it.
// Checked after completed transfers in each direction over Starlink and
// over the wired path, on both ends of every connection.
func TestWireBufferPoolConservation(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	campaigns := map[string]*H3Campaign{
		"down":  tb.RunH3Campaign(1, 16<<20, true, 5*time.Second),
		"up":    tb.RunH3Campaign(1, 16<<20, false, 5*time.Second),
		"wired": tb.RunH3CampaignFrom(tb.PCWired, 1, 4<<20, true, 5*time.Second, tb.QUICConf),
	}
	check := func(who string, st quic.WirePoolStats) {
		t.Helper()
		if st.Gets == 0 || st.Gets != st.Puts+st.Shared {
			t.Errorf("%s: %d buffers taken, %d returned, %d shared: %d unaccounted for",
				who, st.Gets, st.Puts, st.Shared, int64(st.Gets)-int64(st.Puts+st.Shared))
		}
	}
	var lost uint64
	for name, camp := range campaigns {
		if len(camp.Records) != 1 || !camp.Records[0].Result.Completed {
			t.Fatalf("%s: transfer did not complete", name)
		}
		client := camp.Records[0].Result.Client
		lost += client.Stats.PacketsLost + camp.Records[0].Result.Server.Stats.PacketsLost
		check(name+" client", client.Endpoint().WirePoolStats())
	}
	if lost == 0 {
		t.Error("no packet was lost: buffers released at a drop are not covered")
	}
	srv := tb.H3Server.Endpoint.WirePoolStats()
	check("server", srv)
	if srv.HitRate() < 0.5 {
		t.Errorf("server endpoint reused only %.0f%% of its buffers", 100*srv.HitRate())
	}

	// A network in no-recycle mode never releases a payload: every buffer
	// is a fresh allocation left to the garbage collector.
	ref := noRecycleTestbed(DefaultConfig())
	ref.RunH3Campaign(1, 1<<20, true, 5*time.Second)
	if st := ref.H3Server.Endpoint.WirePoolStats(); st.Gets == 0 || st.Hits != 0 || st.Puts != 0 {
		t.Errorf("no-recycle network recycled wire buffers: %+v", st)
	}
}

// tcpTransfers runs the three TCP shapes the campaigns are made of — a
// parallel-connection speedtest over Starlink, one over SatCom through the
// split-connection PEP, and a Wehe service replayed as original and as
// control — on one testbed, calling after with the stage's name once each
// has run its scheduler dry of the stage's packets.
func tcpTransfers(t *testing.T, tb *Testbed, after func(stage string)) (starlink, satcom []measure.SpeedtestResult, det wehe.Detection) {
	t.Helper()
	starlink = tb.RunSpeedtestCampaign(TechStarlink, 1, time.Second)
	after("starlink speedtest")
	satcom = tb.RunSpeedtestCampaign(TechSatCom, 1, time.Second)
	after("satcom speedtest")

	traces := wehe.DefaultServices(tb.Sched.RNG().Stream("wehe"))
	cfg := tb.WebTCP
	cfg.TLSRounds = 0
	wehe.Server(tb.UCLServer, traces, cfg)
	done := false
	wehe.Detect(tb.PCStarlink, tb.UCLServer.Addr(), &traces[0], 2, cfg, func(d wehe.Detection) { det, done = d, true })
	tb.Sched.RunFor(4 * (traces[0].Duration() + time.Minute))
	after("wehe service")

	if len(starlink) != 1 || starlink[0].DownloadMbps <= 0 || len(satcom) != 1 || satcom[0].DownloadMbps <= 0 || !done {
		t.Fatalf("transfers did not complete: starlink %+v satcom %+v wehe done=%v", starlink, satcom, done)
	}
	return starlink, satcom, det
}

// Every TCP segment drawn from the network's pool is back in it once its
// packet reached a terminal point — delivered, consumed by the PEP,
// dropped by a queue, a loss model or an outage — unless an ICMP error
// quoted it (a late segment to a port already closed), which takes it out
// of the pool for good.
func TestSegmentPoolConservation(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	var prev tcpsim.PoolStats
	tcpTransfers(t, tb, func(stage string) {
		st := tcpsim.SegmentPoolStats(tb.Net)
		if st.Gets == prev.Gets || st.Gets != st.Puts+st.Shared {
			t.Errorf("after the %s: %d segments drawn (%d before it), %d returned, %d shared: %d unaccounted for",
				stage, st.Gets, prev.Gets, st.Puts, st.Shared, int64(st.Gets)-int64(st.Puts+st.Shared))
		}
		// The pool outlives its connections: the speedtests filled it, so
		// the connections Wehe dials afterwards allocate a segment only to
		// replace one an ICMP quote took away.
		misses, shared := (st.Gets-st.Hits)-(prev.Gets-prev.Hits), st.Shared-prev.Shared
		if stage == "wehe service" && misses > shared {
			t.Errorf("the %s allocated %d segments (%d shared) from a pool the speedtests had filled", stage, misses, shared)
		}
		prev = st
	})
	if prev.HitRate() < 0.98 {
		t.Errorf("only %.1f%% of %d segments came from the freelist", 100*prev.HitRate(), prev.Gets)
	}
	if prev.Puts == prev.Gets {
		t.Error("no segment was quoted by an ICMP error: the shared path is not covered")
	}

	// Nor a segment: the no-recycle network's pool only ever allocates.
	ref := noRecycleTestbed(DefaultConfig())
	ref.RunSpeedtestCampaign(TechStarlink, 1, time.Second)
	if st := tcpsim.SegmentPoolStats(ref.Net); st.Gets == 0 || st.Hits != 0 || st.Puts != 0 {
		t.Errorf("no-recycle network recycled segments: %+v", st)
	}
}

// A segment is poisoned the moment it enters the freelist and zeroed only
// when it is drawn again, so on a pooling network every transfer runs over
// scribbled recycled segments: anything still reading one after its
// packet's terminal point acts on sequence numbers no connection has. A
// network in no-recycle mode never reuses one; results must not differ.
func TestPoisonedSegmentPoolMatchesReference(t *testing.T) {
	run := func(build func(Config) *Testbed) (a, b []measure.SpeedtestResult, d wehe.Detection) {
		return tcpTransfers(t, build(DefaultConfig()), func(string) {})
	}
	starlink, satcom, det := run(NewTestbed)
	refStarlink, refSatcom, refDet := run(noRecycleTestbed)
	if !reflect.DeepEqual(starlink, refStarlink) {
		t.Errorf("starlink speedtest differs:\n pooled    %+v\n reference %+v", starlink, refStarlink)
	}
	if !reflect.DeepEqual(satcom, refSatcom) {
		t.Errorf("satcom speedtest differs:\n pooled    %+v\n reference %+v", satcom, refSatcom)
	}
	if !reflect.DeepEqual(det, refDet) {
		t.Errorf("wehe detection differs:\n pooled    %+v\n reference %+v", det, refDet)
	}
}
