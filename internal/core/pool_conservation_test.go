package core

import (
	"reflect"
	"testing"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/netem"
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
type poolSnap struct{ pkt, seg, ring, wire sim.PoolStats }

// runPoolStages runs stages one after another on tb and checks after each
// that every object drawn from a pool — a packet, a TCP segment, a QUIC
// wire buffer or reassembly chunk — is back in it once its packet reached
// a terminal point (delivered, consumed by the PEP, dropped by a queue, a
// loss model or an outage; quoted by an ICMP error that did) or its data
// was delivered, unless a holder Detached the packet carrying it (a
// traceroute keeping a quote). Gets == Puts + Shared, for every pool; for TCP in-flight
// rings, which nothing shares, that is every connection the stage opened
// having closed. It returns the counters after each stage.
func runPoolStages(t *testing.T, tb *Testbed, stages []poolStage) []poolSnap {
	t.Helper()
	snaps := make([]poolSnap, 0, len(stages))
	var prev poolSnap
	for _, st := range stages {
		st.run()
		now := poolSnap{
			pkt:  tb.Net.PoolStats(),
			seg:  tcpsim.SegmentPoolStats(tb.Net),
			ring: tcpsim.RingPoolStats(tb.Net),
			wire: quic.WirePoolStats(tb.Net),
		}
		for _, p := range []struct {
			pool        string
			now, before sim.PoolStats
			drawn       bool
		}{
			{"packet", now.pkt, prev.pkt, true},
			{"segment", now.seg, prev.seg, st.tcp},
			{"in-flight ring", now.ring, prev.ring, st.tcp},
			{"QUIC buffer", now.wire, prev.wire, st.h3},
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
// point, and every reassembly chunk once its data was delivered, after
// completed transfers in each direction over Starlink and over the wired
// path, on both ends of every connection. The buffers are the network's:
// each transfer dials a fresh client endpoint, and all of them draw from
// one pool.
func TestWireBufferPoolConservation(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	var lost, sent uint64
	h3 := func(name string, run func() *H3Campaign) poolStage {
		return poolStage{name: name, h3: true, run: func() {
			camp := run()
			if len(camp.Records) != 1 || !camp.Records[0].Result.Completed {
				t.Fatalf("%s: transfer did not complete", name)
			}
			res := camp.Records[0].Result
			lost += res.Client.Stats.PacketsLost + res.Server.Stats.PacketsLost
			sent += res.Client.Stats.PacketsSent + res.Server.Stats.PacketsSent
		}}
	}
	stages := []poolStage{
		h3("h3 down", func() *H3Campaign { return tb.RunH3Campaign(1, 16<<20, true, 5*time.Second) }),
		h3("h3 up", func() *H3Campaign { return tb.RunH3Campaign(1, 16<<20, false, 5*time.Second) }),
		h3("h3 wired", func() *H3Campaign {
			return tb.RunH3CampaignFrom(tb.PCWired, 1, 4<<20, true, 5*time.Second, tb.QUICConf)
		}),
	}
	runPoolStages(t, tb, stages)

	if lost == 0 {
		t.Error("no QUIC packet was lost: buffers released at a drop are not covered")
	}
	// Every packet sent took one buffer; the rest were reassembly chunks.
	st := quic.WirePoolStats(tb.Net)
	if st.Gets <= sent {
		t.Error("no data waited in a reassembly chunk: the chunk path is not covered")
	}
	if st.HitRate() < 0.5 {
		t.Errorf("the network reused only %.0f%% of its buffers", 100*st.HitRate())
	}

	// A network in no-recycle mode never reuses anything: packets are plain
	// allocations the pool never sees, and wire buffers and chunks (the
	// draws beyond one per packet sent) are drawn but never released.
	ref := noRecycleTestbed(DefaultConfig())
	res := ref.RunH3Campaign(1, 16<<20, true, 5*time.Second).Records[0].Result
	if st := ref.Net.PoolStats(); st != (sim.PoolStats{}) {
		t.Errorf("no-recycle network drew packets from its pool: %+v", st)
	}
	if st := quic.WirePoolStats(ref.Net); st.Gets <= res.Client.Stats.PacketsSent+res.Server.Stats.PacketsSent || st.Hits != 0 || st.Puts != 0 {
		t.Errorf("no-recycle network recycled QUIC buffers: %+v", st)
	}
}

// Every TCP segment drawn from the network's pool, and every packet, is
// back in it once its packet reached a terminal point — an ICMP error's
// quote and the segment it quotes (a late segment to a port already
// closed) included, since the error owns both; every in-flight ring is
// back once its connection closed. The only packets kept are the quotes a
// traceroute's hops hold. Checked after each TCP campaign shape, after
// pings and after a Tracebox run, on one testbed.
func TestSegmentPoolConservation(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	// Count the errors that quote a segment where they land: data a
	// speedtest server sends after the client aborted.
	quotedSegs := 0
	for _, name := range []string{"ookla-bru", "ookla-ams"} {
		tb.Net.NodeByName(name).Bind(netem.ProtoICMP, 0, func(p *netem.Packet) {
			if ic, ok := p.Payload.(*netem.ICMP); ok && ic.Quoted != nil {
				if _, ok := ic.Quoted.Payload.(*tcpsim.Segment); ok {
					quotedSegs++
				}
			}
		})
	}
	var tcp tcpRun
	var hops []measure.TraceboxHop
	stages := append(tcpStages(tb, &tcp),
		poolStage{name: "ping", run: func() { tb.RunLatencyCampaign(30*time.Minute, 5*time.Minute) }},
		poolStage{name: "tracebox", run: func() {
			measure.NewProber(tb.PCStarlink).Tracebox(tb.UCLServer.Addr(), 24, func(h []measure.TraceboxHop) { hops = h })
			tb.Sched.RunFor(3 * time.Minute)
			tb.PCStarlink.Unbind(netem.ProtoICMP, 0)
		}},
		// The audit's PEP probe: TTL-limited SYNs, quoted on expiry.
		poolStage{name: "middlebox audit", run: func() { tb.RunMiddleboxAudit(TechStarlink) }})
	snaps := runPoolStages(t, tb, stages)
	tcp.check(t)

	// The segment pool outlives its connections: the speedtests filled it,
	// so the connections Wehe dials afterwards (stage 2) allocate no
	// segment of their own.
	seg, prev := snaps[2].seg, snaps[1].seg
	if misses := (seg.Gets - seg.Hits) - (prev.Gets - prev.Hits); misses != 0 {
		t.Errorf("wehe allocated %d segments from a pool the speedtests had filled", misses)
	}
	// So do the in-flight rings: each connection Wehe dials takes one a
	// speedtest connection grew and gave back.
	ring, before := snaps[2].ring, snaps[1].ring
	if misses := (ring.Gets - ring.Hits) - (before.Gets - before.Hits); ring.Gets == before.Gets || misses != 0 {
		t.Errorf("wehe opened %d connections and allocated %d in-flight rings from a pool the speedtests had filled", ring.Gets-before.Gets, misses)
	}
	last := snaps[len(snaps)-1]

	// Every path back to the pool is covered, the quote's included: the
	// SatCom speedtest's late segments draw DestUnreachable errors, whose
	// quotes go home with them.
	if last.seg.HitRate() < 0.98 {
		t.Errorf("only %.1f%% of %d segments came from the freelist", 100*last.seg.HitRate(), last.seg.Gets)
	}
	if quotedSegs == 0 {
		t.Error("no ICMP error quoted a segment: the quote path is not covered")
	}
	pings, tracebox := snaps[len(snaps)-3], snaps[len(snaps)-2]
	if pings.pkt.Shared != 0 || pings.seg.Shared != 0 {
		t.Errorf("after the TCP campaigns and pings %d packets and %d segments were kept; nothing keeps one",
			pings.pkt.Shared, pings.seg.Shared)
	}
	kept := uint64(0)
	for _, h := range hops {
		if h.Quoted != nil {
			kept++
		}
	}
	if kept == 0 || tracebox.pkt.Shared != kept || last.seg.Shared != 0 {
		t.Errorf("Tracebox kept %d quotes; the packet pool counts %d Shared and the segment pool %d, want %d and 0",
			kept, tracebox.pkt.Shared, last.seg.Shared, kept)
	}

	// A network in no-recycle mode never reuses anything: packets are plain
	// allocations the pool never sees, and segments and in-flight rings are
	// drawn but never released.
	ref := noRecycleTestbed(DefaultConfig())
	ref.RunSpeedtestCampaign(TechStarlink, 1, time.Second)
	if st := ref.Net.PoolStats(); st != (sim.PoolStats{}) {
		t.Errorf("no-recycle network drew packets from its pool: %+v", st)
	}
	if st := tcpsim.SegmentPoolStats(ref.Net); st.Gets == 0 || st.Hits != 0 || st.Puts != 0 {
		t.Errorf("no-recycle network recycled segments: %+v", st)
	}
	if st := tcpsim.RingPoolStats(ref.Net); st.Gets == 0 || st.Hits != 0 || st.Puts != 0 {
		t.Errorf("no-recycle network recycled in-flight rings: %+v", st)
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
