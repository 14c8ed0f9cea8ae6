package core

import (
	"reflect"
	"testing"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/tcpsim"
	"starlinkperf/internal/wehe"
)

// poolStage is one campaign shape run on a testbed until its scheduler is
// dry of the stage's packets; tcp and h3 say which payload pool it must
// draw from besides the packet pool.
type poolStage struct {
	name    string
	tcp, h3 bool
	run     func()
}

// tcpRun holds what the TCP stages produced.
type tcpRun struct {
	starlink, satcom []measure.SpeedtestResult
	det              wehe.Detection
	done             bool
}

// tcpStages returns the three TCP shapes the campaigns are made of — a
// parallel-connection speedtest over Starlink, one over SatCom through the
// split-connection PEP, and a Wehe service replayed as original and as
// control — as stages on tb writing into r.
func tcpStages(tb *Testbed, r *tcpRun) []poolStage {
	return []poolStage{
		{name: "speedtest starlink", tcp: true, run: func() {
			r.starlink = tb.RunSpeedtestCampaign(TechStarlink, 1, time.Second)
		}},
		{name: "speedtest satcom", tcp: true, run: func() {
			r.satcom = tb.RunSpeedtestCampaign(TechSatCom, 1, time.Second)
		}},
		{name: "wehe", tcp: true, run: func() {
			traces := wehe.DefaultServices(tb.Sched.RNG().Stream("wehe"))
			cfg := tb.WebTCP
			cfg.TLSRounds = 0
			wehe.Server(tb.UCLServer, traces, cfg)
			wehe.Detect(tb.PCStarlink, tb.UCLServer.Addr(), &traces[0], 2, cfg, func(d wehe.Detection) { r.det, r.done = d, true })
			tb.Sched.RunFor(4 * (traces[0].Duration() + time.Minute))
		}},
	}
}

// check fails t unless every TCP stage completed.
func (r *tcpRun) check(t *testing.T) {
	t.Helper()
	if len(r.starlink) != 1 || r.starlink[0].DownloadMbps <= 0 || len(r.satcom) != 1 || r.satcom[0].DownloadMbps <= 0 || !r.done {
		t.Fatalf("transfers did not complete: starlink %+v satcom %+v wehe done=%v", r.starlink, r.satcom, r.done)
	}
}

// poolSnap is every pool's counters at one moment.
type poolSnap struct{ pkt, seg, wire sim.PoolStats }

// runPoolStages runs stages one after another on tb and checks after each
// that every object drawn from a pool — a packet, a TCP segment, a QUIC
// wire buffer of any of endpoints — is back in it once its packet reached
// a terminal point (delivered, consumed by the PEP, dropped by a queue, a
// loss model or an outage) unless something kept referencing it: an ICMP
// error's quote, or a packet a holder Detached. Gets == Puts + Shared, for
// every pool and every endpoint. It returns the counters after each stage.
func runPoolStages(t *testing.T, tb *Testbed, stages []poolStage, endpoints func() []*quic.Endpoint) []poolSnap {
	t.Helper()
	snaps := make([]poolSnap, 0, len(stages))
	var prev poolSnap
	for _, st := range stages {
		st.run()
		now := poolSnap{pkt: tb.Net.PoolStats(), seg: tcpsim.SegmentPoolStats(tb.Net)}
		for i, ep := range endpoints() {
			w := ep.WirePoolStats()
			if w.Gets != w.Puts+w.Shared {
				t.Errorf("after %s: endpoint %d: %+v", st.name, i, w)
			}
			now.wire.Gets += w.Gets
			now.wire.Hits += w.Hits
			now.wire.Puts += w.Puts
			now.wire.Shared += w.Shared
		}
		for _, p := range []struct {
			pool        string
			now, before sim.PoolStats
			drawn       bool
		}{
			{"packet", now.pkt, prev.pkt, true},
			{"segment", now.seg, prev.seg, st.tcp},
			{"wire-buffer", now.wire, prev.wire, st.h3},
		} {
			if p.drawn && p.now.Gets == p.before.Gets {
				t.Errorf("%s: drew nothing from the %s pool", st.name, p.pool)
			}
			if p.now.Gets != p.now.Puts+p.now.Shared {
				t.Errorf("after %s: %s pool: %d drawn, %d returned, %d shared: %d unaccounted for",
					st.name, p.pool, p.now.Gets, p.now.Puts, p.now.Shared, int64(p.now.Gets)-int64(p.now.Puts+p.now.Shared))
			}
		}
		snaps = append(snaps, now)
		prev = now
	}
	return snaps
}

// Every wire buffer a QUIC endpoint hands to the datapath, and every
// packet carrying one, comes back once its packet reached a terminal
// point, after completed transfers in each direction over Starlink and
// over the wired path, on both ends of every connection.
func TestWireBufferPoolConservation(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	var (
		clients []*quic.Endpoint
		lost    uint64
	)
	h3 := func(name string, run func() *H3Campaign) poolStage {
		return poolStage{name: name, h3: true, run: func() {
			camp := run()
			if len(camp.Records) != 1 || !camp.Records[0].Result.Completed {
				t.Fatalf("%s: transfer did not complete", name)
			}
			res := camp.Records[0].Result
			lost += res.Client.Stats.PacketsLost + res.Server.Stats.PacketsLost
			clients = append(clients, res.Client.Endpoint())
		}}
	}
	stages := []poolStage{
		h3("h3 down", func() *H3Campaign { return tb.RunH3Campaign(1, 16<<20, true, 5*time.Second) }),
		h3("h3 up", func() *H3Campaign { return tb.RunH3Campaign(1, 16<<20, false, 5*time.Second) }),
		h3("h3 wired", func() *H3Campaign {
			return tb.RunH3CampaignFrom(tb.PCWired, 1, 4<<20, true, 5*time.Second, tb.QUICConf)
		}),
	}
	endpoints := func() []*quic.Endpoint { return append([]*quic.Endpoint{tb.H3Server.Endpoint}, clients...) }
	runPoolStages(t, tb, stages, endpoints)

	if lost == 0 {
		t.Error("no QUIC packet was lost: buffers released at a drop are not covered")
	}
	if srv := tb.H3Server.Endpoint.WirePoolStats(); srv.HitRate() < 0.5 {
		t.Errorf("server endpoint reused only %.0f%% of its buffers", 100*srv.HitRate())
	}

	// A network in no-recycle mode never reuses anything: packets are plain
	// allocations the pool never sees, and wire buffers are drawn but never
	// released.
	ref := noRecycleTestbed(DefaultConfig())
	ref.RunH3Campaign(1, 1<<20, true, 5*time.Second)
	if st := ref.Net.PoolStats(); st != (sim.PoolStats{}) {
		t.Errorf("no-recycle network drew packets from its pool: %+v", st)
	}
	if st := ref.H3Server.Endpoint.WirePoolStats(); st.Gets == 0 || st.Hits != 0 || st.Puts != 0 {
		t.Errorf("no-recycle network recycled wire buffers: %+v", st)
	}
}

// Every TCP segment drawn from the network's pool, and every packet, is
// back in it once its packet reached a terminal point, unless an ICMP
// error quoted it (a late segment to a port already closed, a traceroute
// probe), which takes it out of the pool for good. Checked after each TCP
// campaign shape and after pings and traceroutes, on one testbed.
func TestSegmentPoolConservation(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	var tcp tcpRun
	stages := append(tcpStages(tb, &tcp), poolStage{name: "ping/traceroute", run: func() {
		tb.RunLatencyCampaign(30*time.Minute, 5*time.Minute)
		tb.RunMiddleboxAudit(TechStarlink)
	}})
	snaps := runPoolStages(t, tb, stages, func() []*quic.Endpoint { return nil })
	tcp.check(t)

	// The segment pool outlives its connections: the speedtests filled it,
	// so the connections Wehe dials afterwards (stage 2) allocate a segment
	// only to replace one an ICMP quote took away.
	seg, prev := snaps[2].seg, snaps[1].seg
	if misses, shared := (seg.Gets-seg.Hits)-(prev.Gets-prev.Hits), seg.Shared-prev.Shared; misses > shared {
		t.Errorf("wehe allocated %d segments (%d shared) from a pool the speedtests had filled", misses, shared)
	}
	last := snaps[len(snaps)-1]

	// Every path back to the pool and out of it is covered.
	if last.seg.HitRate() < 0.98 {
		t.Errorf("only %.1f%% of %d segments came from the freelist", 100*last.seg.HitRate(), last.seg.Gets)
	}
	if last.seg.Shared == 0 {
		t.Error("no segment was quoted by an ICMP error: the shared path is not covered")
	}
	if last.pkt.Shared == 0 {
		t.Error("no packet was quoted by an ICMP error: the shared path is not covered")
	}

	// A network in no-recycle mode never reuses anything: packets are plain
	// allocations the pool never sees, and segments are drawn but never
	// released.
	ref := noRecycleTestbed(DefaultConfig())
	ref.RunSpeedtestCampaign(TechStarlink, 1, time.Second)
	if st := ref.Net.PoolStats(); st != (sim.PoolStats{}) {
		t.Errorf("no-recycle network drew packets from its pool: %+v", st)
	}
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
	run := func(build func(Config) *Testbed) tcpRun {
		var r tcpRun
		for _, st := range tcpStages(build(DefaultConfig()), &r) {
			st.run()
		}
		r.check(t)
		return r
	}
	pooled, ref := run(NewTestbed), run(noRecycleTestbed)
	if !reflect.DeepEqual(pooled.starlink, ref.starlink) {
		t.Errorf("starlink speedtest differs:\n pooled    %+v\n reference %+v", pooled.starlink, ref.starlink)
	}
	if !reflect.DeepEqual(pooled.satcom, ref.satcom) {
		t.Errorf("satcom speedtest differs:\n pooled    %+v\n reference %+v", pooled.satcom, ref.satcom)
	}
	if !reflect.DeepEqual(pooled.det, ref.det) {
		t.Errorf("wehe detection differs:\n pooled    %+v\n reference %+v", pooled.det, ref.det)
	}
}
