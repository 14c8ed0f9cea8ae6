package core

import (
	"testing"
	"time"

	"starlinkperf/internal/quic"
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

	// The seed datapath never releases a payload: every buffer is a fresh
	// allocation left to the garbage collector.
	cfg := DefaultConfig()
	cfg.ReferenceDatapath = true
	ref := NewTestbed(cfg)
	ref.RunH3Campaign(1, 1<<20, true, 5*time.Second)
	if st := ref.H3Server.Endpoint.WirePoolStats(); st.Gets == 0 || st.Hits != 0 || st.Puts != 0 {
		t.Errorf("reference datapath recycled wire buffers: %+v", st)
	}
}
