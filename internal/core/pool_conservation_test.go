package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/netem/netemtest"
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

// poolsOf reads every pool of nw, by name, through the network's walk.
func poolsOf(nw *netem.Network) map[string]sim.PoolStats {
	pools := map[string]sim.PoolStats{}
	nw.Pools(func(name string, st sim.PoolStats) { pools[name] = st })
	return pools
}

// runPoolStages runs stages one after another on tb and checks after each
// that every object drawn from a pool — a packet, an ICMP body, a TCP
// segment or in-flight ring, a QUIC wire buffer, sent record or STREAM
// frame — is back in it once its packet reached a terminal point
// (delivered, consumed by the PEP, dropped by a queue, a loss model or an
// outage; quoted by an ICMP error that did) or its connection closed. It
// returns the counters after each stage.
func runPoolStages(t *testing.T, tb *Testbed, stages []poolStage) []map[string]sim.PoolStats {
	t.Helper()
	snaps := make([]map[string]sim.PoolStats, 0, len(stages))
	prev := map[string]sim.PoolStats{}
	for _, st := range stages {
		st.run()
		now := poolsOf(tb.Net)
		drawn := []string{"packet"}
		if st.tcp {
			drawn = append(drawn, "tcp segment", "tcp ring")
		}
		if st.h3 {
			drawn = append(drawn, "quic wire")
		}
		for _, pool := range drawn {
			if now[pool].Gets == prev[pool].Gets {
				t.Errorf("%s: drew nothing from the %s pool", st.name, pool)
			}
		}
		if err := netemtest.CheckPools(tb.Net); err != nil {
			t.Errorf("after %s: %v", st.name, err)
		}
		snaps = append(snaps, now)
		prev = now
	}
	return snaps
}

// Every wire buffer a QUIC endpoint hands to the datapath, and every
// packet carrying one, comes back once its packet reached a terminal
// point, after completed transfers in each direction over Starlink and
// over the wired path, on both ends of every connection. Each packet sent
// draws one buffer and nothing else draws any: the data behind a lost
// packet waits out of order by reference. The buffers are the network's:
// each transfer dials a fresh client endpoint, and all of them draw from
// one pool.
func TestWireBufferPoolConservation(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	var lost uint64
	var conns []*quic.Connection
	h3 := func(name string, run func() *H3Campaign) poolStage {
		return poolStage{name: name, h3: true, run: func() {
			camp := run()
			if len(camp.Records) != 1 || !camp.Records[0].Result.Completed {
				t.Fatalf("%s: transfer did not complete", name)
			}
			res := camp.Records[0].Result
			lost += res.Client.Stats.PacketsLost + res.Server.Stats.PacketsLost
			conns = append(conns, res.Client, res.Server)
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
		t.Error("no QUIC packet was lost: buffers released at a drop and data waiting out of order are not covered")
	}
	var sent uint64
	for _, c := range conns {
		sent += c.Stats.PacketsSent
	}
	st := poolsOf(tb.Net)["quic wire"]
	if st.Gets != sent {
		t.Errorf("%d wire buffers drawn for %d packets sent", st.Gets, sent)
	}
	if hr := float64(st.Hits) / float64(st.Gets); !(hr >= 0.5) {
		t.Errorf("the network reused only %.0f%% of its buffers", 100*hr)
	}

	// A network in no-recycle mode never reuses anything: packets are plain
	// allocations the pool never sees, and wire buffers, one per packet
	// sent, are drawn but never released.
	ref := noRecycleTestbed(DefaultConfig())
	res := ref.RunH3Campaign(1, 16<<20, true, 5*time.Second).Records[0].Result
	if st := ref.Net.PoolStats(); st != (sim.PoolStats{}) {
		t.Errorf("no-recycle network drew packets from its pool: %+v", st)
	}
	if st := poolsOf(ref.Net)["quic wire"]; st.Gets != res.Client.Stats.PacketsSent+res.Server.Stats.PacketsSent || st.Hits != 0 || st.Puts != 0 {
		t.Errorf("no-recycle network recycled QUIC buffers or drew them for anything but packets: %+v", st)
	}
}

// Every TCP segment drawn from the network's pool, and every packet, is
// back in it once its packet reached a terminal point — an ICMP error's
// quote and the segment it quotes (a late segment to a port already
// closed) included, since the error owns both; every in-flight ring is
// back once its connection closed. Nothing keeps a packet or an ICMP body:
// a traceroute's hops copy the quoted header. Checked after each TCP
// campaign shape, after pings, after a Tracebox run and after a middlebox
// audit, on one testbed.
func TestSegmentPoolConservation(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	// Count the errors that quote a segment on their way to a speedtest
	// server: data it sends after the client aborted.
	quotedSegs := map[uint64]bool{}
	for _, l := range tb.Net.Links() {
		l.DeliverHook = func(_ sim.Time, p *netem.Packet) {
			if ic, ok := p.Payload.(*netem.ICMP); ok && ic.Quoted != nil && slices.Contains(tb.OoklaServers, p.Dst) {
				if _, ok := ic.Quoted.Payload.(*tcpsim.Segment); ok {
					quotedSegs[p.ID] = true
				}
			}
		}
	}
	var tcp tcpRun
	var hops []measure.TraceboxHop
	stages := append(tcpStages(tb, &tcp),
		poolStage{name: "ping", run: func() { tb.RunLatencyCampaign(30*time.Minute, 5*time.Minute) }},
		poolStage{name: "tracebox", run: func() {
			measure.NewProber(tb.PCStarlink).Tracebox(tb.UCLServer.Addr(), func(h []measure.TraceboxHop) { hops = h })
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
	seg, prev := snaps[2]["tcp segment"], snaps[1]["tcp segment"]
	if misses := (seg.Gets - seg.Hits) - (prev.Gets - prev.Hits); misses != 0 {
		t.Errorf("wehe allocated %d segments from a pool the speedtests had filled", misses)
	}
	// So do the in-flight rings: each connection Wehe dials takes one a
	// speedtest connection grew and gave back.
	ring, before := snaps[2]["tcp ring"], snaps[1]["tcp ring"]
	if misses := (ring.Gets - ring.Hits) - (before.Gets - before.Hits); ring.Gets == before.Gets || misses != 0 {
		t.Errorf("wehe opened %d connections and allocated %d in-flight rings from a pool the speedtests had filled", ring.Gets-before.Gets, misses)
	}
	last := snaps[len(snaps)-1]

	// Every path back to the pool is covered, the quote's included: the
	// SatCom speedtest's late segments draw DestUnreachable errors, whose
	// quotes go home with them.
	if seg := last["tcp segment"]; !(float64(seg.Hits)/float64(seg.Gets) >= 0.98) {
		t.Errorf("only %.1f%% of %d segments came from the freelist", 100*float64(seg.Hits)/float64(seg.Gets), seg.Gets)
	}
	if len(quotedSegs) == 0 {
		t.Error("no ICMP error quoted a segment: the quote path is not covered")
	}
	quotes := 0
	for _, h := range hops {
		if h.Quoted != nil {
			quotes++
		}
	}
	if quotes == 0 {
		t.Error("no Tracebox hop carried a quote: the traceroute quote path is not covered")
	}
	if last["icmp"].Gets == 0 {
		t.Error("no ICMP body was drawn: the ICMP pool is not covered")
	}

	// A network in no-recycle mode never reuses anything: packets are plain
	// allocations the pool never sees, and segments and in-flight rings are
	// drawn but never released.
	ref := noRecycleTestbed(DefaultConfig())
	ref.RunSpeedtestCampaign(TechStarlink, 1, time.Second)
	if st := ref.Net.PoolStats(); st != (sim.PoolStats{}) {
		t.Errorf("no-recycle network drew packets from its pool: %+v", st)
	}
	refPools := poolsOf(ref.Net)
	if st := refPools["tcp segment"]; st.Gets == 0 || st.Hits != 0 || st.Puts != 0 {
		t.Errorf("no-recycle network recycled segments: %+v", st)
	}
	if st := refPools["tcp ring"]; st.Gets == 0 || st.Hits != 0 || st.Puts != 0 {
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

// A DropHook observes a drop without keeping the packet: once the hook
// returns, the packet and the wire buffer or segment it carries go home
// like any other drop's, so a speedtest and a lossy H3 transfer on links
// that all carry a hook leave every pool balanced.
func TestHookedDropsPoolConservation(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	drops := map[netem.Proto]int{}
	for _, l := range tb.Net.Links() {
		l.DropHook = func(_ sim.Time, p *netem.Packet, _ netem.DropReason) { drops[p.Proto]++ }
	}
	stages := []poolStage{
		{name: "speedtest starlink", tcp: true, run: func() { tb.RunSpeedtestCampaign(TechStarlink, 1, time.Second) }},
		{name: "h3 down", h3: true, run: func() { tb.RunH3Campaign(1, 16<<20, true, 5*time.Second) }},
	}
	runPoolStages(t, tb, stages)
	if drops[netem.ProtoUDP] == 0 || drops[netem.ProtoTCP] == 0 {
		t.Errorf("hooked drops by protocol %v: the QUIC or the TCP drop path is not covered", drops)
	}
}

// A Starlink speedtest right after an H3 download on one testbed: the
// handover micro-outage at the start of epoch 10 drops the client's four
// Abort RSTs, so the four server legs at ookla-ams never learn that their
// peer is gone and retransmit into ICMP port-unreachables, which tcpsim
// ignores. The campaign ends with their segments and rings out; after
// tcpsim's maxRTOs consecutive timeouts each leg gives up, and every pool
// is whole again.
func TestAbandonedConnectionsGiveUp(t *testing.T) {
	tb := NewTestbed(DefaultConfig())
	tb.RunH3Campaign(1, 16<<20, true, 5*time.Second)
	tb.RunSpeedtestCampaign(TechStarlink, 1, time.Second)
	if netemtest.CheckPools(tb.Net) == nil {
		t.Fatal("every pool is whole when the campaign ends: no connection was left open, so the give-up is not exercised")
	}
	tb.Sched.RunFor(15 * time.Minute)
	if err := netemtest.CheckPools(tb.Net); err != nil {
		t.Fatalf("15 minutes after the campaign: %v", err)
	}
}
