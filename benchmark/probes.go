package main

import (
	"runtime"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/core"
	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/nat"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/tcpsim"
	"starlinkperf/internal/trace"
)

// A probe is an isolated loop in the benchmark over one layer's public
// API: the layer's cost with nothing else running. Each probe is timed
// for several repeats and the median is reported; the length of a repeat
// comes from the size profile.
type probe struct {
	name   string  // metric carrying host time per operation
	allocs string  // optional metric carrying allocations per operation
	scale  float64 // ns per operation → the metric's unit
	// build sets the probe up and returns its loop: run about n
	// operations, return how many were run.
	build func() func(n int) int
}

// probeSink keeps results alive so the compiler cannot drop a probe body.
var probeSink float64

func runProbes(p *profile) map[string]float64 {
	out := map[string]float64{}
	for _, pr := range probes {
		body := pr.build()
		// Warm up and estimate the cost of one operation.
		start := time.Now()
		ops := body(1)
		for time.Since(start) < p.probeRepeat/8 {
			ops += body(max(ops, 1))
		}
		perOp := float64(time.Since(start)) / float64(max(ops, 1))
		n := max(1, int(float64(p.probeRepeat)/perOp))

		var ns []float64
		var mallocs, counted uint64
		for r := 0; r < p.probeRepeats; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			done := body(n)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			ns = append(ns, float64(elapsed)/float64(max(done, 1)))
			mallocs += after.Mallocs - before.Mallocs
			counted += uint64(max(done, 1))
		}
		out[pr.name] = median(ns) * pr.scale
		if pr.allocs != "" {
			out[pr.allocs] = float64(mallocs) / float64(counted)
		}
	}
	return out
}

// churn is a TCP sender's timer life cycle: stop the retransmit timer,
// re-arm it, schedule the next data event (as in internal/sim's
// benchmarks).
type churn struct {
	s      *sim.Scheduler
	retx   sim.TimerHandle
	left   int
	period sim.Duration
}

func churnNop(any) {}

func churnFire(arg any) {
	c := arg.(*churn)
	c.retx.Stop()
	c.retx = c.s.AfterFunc(10*c.period, churnNop, c)
	if c.left > 0 {
		c.left--
		c.s.AfterFunc(c.period, churnFire, c)
	}
}

// churnLoop returns a probe loop over a scheduler that already holds
// pending far-future timers (0 for the plain churn probe).
func churnLoop(pending int) func(n int) int {
	s := sim.NewScheduler(1)
	for i := 0; i < pending; i++ {
		s.AfterFunc(sim.Duration(1000+i)*time.Hour, churnNop, nil)
	}
	c := &churn{s: s, period: time.Millisecond}
	return func(n int) int {
		before := s.Processed
		c.left = n
		s.AfterFunc(c.period, churnFire, c)
		// The far-future timers must stay pending, so run to a horizon
		// just past this batch instead of draining the queue.
		s.RunFor(sim.Duration(n+20) * c.period)
		return int(s.Processed - before)
	}
}

// forwardLoop sends packets of the given size across a three-node chain:
// send, route, transit forward, deliver, release.
func forwardLoop(size int) func(n int) int {
	s := sim.NewScheduler(1)
	nw := netem.New(s)
	a := nw.NewNode("a", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("b", netem.MustParseAddr("10.0.0.2"))
	c := nw.NewNode("c", netem.MustParseAddr("10.0.0.3"))
	link := netem.LinkConfig{RateBps: 1e9, Delay: netem.ConstantDelay(time.Millisecond), QueueBytes: 1 << 20}
	ab, ba := nw.Connect(a, b, link)
	bc, _ := nw.Connect(b, c, link)
	a.SetDefaultRoute(ab)
	b.AddRoute(c.Addr(), bc)
	b.AddRoute(a.Addr(), ba)
	c.Bind(netem.ProtoUDP, 9, func(*netem.Packet) {})
	return func(n int) int {
		for i := 0; i < n; i++ {
			pkt := nw.NewPacket()
			pkt.Dst, pkt.DstPort, pkt.Proto, pkt.Size = c.Addr(), 9, netem.ProtoUDP, size
			a.Send(pkt)
			s.Run()
		}
		return n
	}
}

// vantage is the paper's dish position; the geometry probes use distinct
// instants per call so no memo or snapshot ring short-circuits them.
var vantage = geo.LatLon{LatDeg: 50.67, LonDeg: 4.61}

func newTerminal() *leo.Terminal {
	gws := []leo.Gateway{
		{Name: "ams-gw", Pos: geo.LatLon{LatDeg: 52.31, LonDeg: 4.76}, PoP: "AMS"},
		{Name: "fra-gw", Pos: geo.LatLon{LatDeg: 50.03, LonDeg: 8.57}, PoP: "FRA"},
	}
	con := leo.NewConstellation(leo.NewShell(leo.StarlinkGen1()))
	return leo.NewTerminal(leo.DefaultTerminalConfig(vantage), con, gws)
}

// tcpPair is a client and a server node joined by one fast link. One live
// far-future timer stays queued: a queue holding only stopped timers makes
// Scheduler.compact index an empty heap (a defect this benchmark met and
// leaves to a later change), so the probes advance with RunFor.
func tcpPair() (s *sim.Scheduler, client, server *netem.Node) {
	s = sim.NewScheduler(1)
	s.AfterFunc(1e6*time.Hour, churnNop, nil)
	nw := netem.New(s)
	client = nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	server = nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	cs, sc := nw.Connect(client, server, netem.LinkConfig{
		RateBps: 1e9, Delay: netem.ConstantDelay(time.Millisecond), QueueBytes: 4 << 20,
	})
	client.SetDefaultRoute(cs)
	server.SetDefaultRoute(sc)
	return s, client, server
}

func ccLoop(ctl cc.CongestionController) func(n int) int {
	var rtt cc.RTTEstimator
	rtt.Update(40*time.Millisecond, 0)
	now := sim.Time(0)
	return func(n int) int {
		for i := 0; i < n; i++ {
			now = now.Add(100 * time.Microsecond)
			ctl.OnPacketSent(now, 1460)
			ctl.OnPacketAcked(now, 1460, &rtt)
		}
		probeSink += float64(ctl.Window())
		return n
	}
}

// samples10k is a fixed, unsorted sample set for the stats probes.
func samples10k() []float64 {
	rng := sim.NewRNG(7)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.LogNormal(3.7, 0.4)
	}
	return xs
}

var probes = []probe{
	{name: "sim.probe.churn_ns_per_event", allocs: "sim.probe.churn_allocs_per_event", scale: 1,
		build: func() func(int) int { return churnLoop(0) }},
	{name: "sim.probe.deep_heap_ns_per_event", scale: 1,
		build: func() func(int) int { return churnLoop(100000) }},
	{name: "netem.probe.forward64_ns_per_packet", scale: 1,
		build: func() func(int) int { return forwardLoop(64) }},
	{name: "netem.probe.forward1350_ns_per_packet", allocs: "netem.probe.forward_allocs_per_packet", scale: 1,
		build: func() func(int) int { return forwardLoop(1350) }},
	{name: "leo.probe.assign_ns_per_epoch", scale: 1, build: func() func(int) int {
		term, epoch := newTerminal(), int64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				epoch++
				if term.AssignmentAt(sim.Time(epoch * int64(15*time.Second))).OK {
					probeSink++
				}
			}
			return n
		}
	}},
	{name: "leo.probe.delay_ns_per_call", scale: 1, build: func() func(int) int {
		term, quantum := newTerminal(), int64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				quantum++
				d, _ := term.DelayAt(sim.Time(quantum * int64(10*time.Millisecond)))
				probeSink += float64(d)
			}
			return n
		}
	}},
	{name: "leo.probe.isl_path_us", scale: 1e-3, build: func() func(int) int {
		router := leo.NewISLRouter(leo.NewConstellation(leo.NewShell(leo.StarlinkGen1())), 0)
		singapore, minute := geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}, int64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				minute++
				d, _, _ := router.PathDelay(sim.Time(minute*int64(time.Minute)), vantage, singapore, 25)
				probeSink += float64(d)
			}
			return n
		}
	}},
	{name: "geo.probe.elevation_ns_per_call", scale: 1, build: func() func(int) int {
		obsPos, lon := vantage.ToECEF(), 0.0
		return func(n int) int {
			for i := 0; i < n; i++ {
				lon += 0.37
				sat := geo.LatLon{LatDeg: 53, LonDeg: lon, AltKm: 550}.ToECEF()
				probeSink += geo.ElevationDegECEF(obsPos, sat)
			}
			return n
		}
	}},
	{name: "quic.probe.codec_ns_per_packet", scale: 1, build: func() func(int) int {
		frames := []quic.Frame{
			&quic.AckFrame{Ranges: []quic.AckRange{{Smallest: 90, Largest: 120}, {Smallest: 10, Largest: 80}}, AckDelay: time.Millisecond},
			&quic.StreamFrame{StreamID: 4, Offset: 1 << 20, Data: make([]byte, 1200)},
		}
		pn := uint64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				pn++
				wire := quic.Serialize(quic.PacketHeader{ConnID: 7, Number: pn}, frames)
				pkt, err := quic.Parse(wire)
				if err != nil || pkt.Header.Number != pn {
					panic("quic codec probe: round trip failed")
				}
			}
			return n
		}
	}},
	{name: "tcpsim.probe.loopback_ns_per_segment", scale: 1, build: func() func(int) int {
		s, client, server := tcpPair()
		var accepted *tcpsim.Conn
		tcpsim.Listen(server, 80, tcpsim.Config{}, func(c *tcpsim.Conn) { accepted = c })
		return func(n int) int {
			c := tcpsim.Dial(client, server.Addr(), 80, tcpsim.Config{})
			c.OnEstablished = func() {
				c.Write(n * 1460)
				c.Close()
			}
			s.RunFor(time.Minute)
			segs := c.Stats.SegmentsSent
			if accepted != nil {
				segs += accepted.Stats.SegmentsSent
			}
			return int(segs)
		}
	}},
	{name: "tcpsim.us_per_conn_setup", scale: 1e-3, build: func() func(int) int {
		s, client, server := tcpPair()
		cfg := tcpsim.Config{TLSRounds: 2}
		tcpsim.Listen(server, 443, cfg, func(c *tcpsim.Conn) {
			c.OnData = func(_ int, fin bool) {
				if fin {
					c.Close()
				}
			}
		})
		return func(n int) int {
			ready := 0
			for i := 0; i < n; i++ {
				c := tcpsim.Dial(client, server.Addr(), 443, cfg)
				c.OnEstablished = func() {
					ready++
					c.Close()
				}
				s.RunFor(time.Minute)
			}
			if ready != n {
				panic("tcpsim set-up probe: a connection did not establish")
			}
			return n
		}
	}},
	{name: "cc.probe.cubic_ns_per_ack", scale: 1,
		build: func() func(int) int { return ccLoop(cc.NewCubic(1460)) }},
	{name: "cc.probe.bbr_ns_per_ack", scale: 1,
		build: func() func(int) int { return ccLoop(cc.NewBBR(1460)) }},
	{name: "nat.probe.translate_ns_per_packet", scale: 1, build: func() func(int) int {
		s := sim.NewScheduler(1)
		node := netem.New(s).NewNode("cpe", netem.MustParseAddr("192.0.2.1"))
		inside := netem.MustParseAddr("10.0.0.0")
		n4 := nat.New(node.Addr(), nat.PrefixInside(inside, 8))
		host, remote := netem.MustParseAddr("10.0.0.5"), netem.MustParseAddr("198.51.100.9")
		var pkt netem.Packet
		port := uint16(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				// 64 flows: the first packet of each allocates a mapping,
				// the rest are table hits in both directions.
				port = 20000 + (port+1)%64
				pkt = netem.Packet{Src: host, SrcPort: port, Dst: remote, DstPort: 443, Proto: netem.ProtoUDP, Size: 1350}
				n4.ProcessEgress(node, &pkt)
				pkt.Src, pkt.Dst = remote, pkt.Src
				pkt.SrcPort, pkt.DstPort = 443, pkt.SrcPort
				if !n4.Process(node, &pkt) || pkt.Dst != host {
					panic("nat probe: reply was not translated back")
				}
			}
			return 2 * n
		}
	}},
	{name: "trace.probe.analyze_losses_ns_per_packet", scale: 1, build: func() func(int) int {
		var recs []trace.PacketRecord
		for pn := uint64(0); pn < 20000; pn++ {
			if pn%97 == 13 || pn%1009 < 3 {
				continue // isolated losses and short bursts
			}
			recs = append(recs, trace.PacketRecord{At: sim.Time(pn * 100000), PN: pn, Size: 1350})
		}
		return func(n int) int {
			done := 0
			for done < n {
				rep := trace.AnalyzeLosses(recs)
				probeSink += float64(rep.PacketsLost)
				done += len(recs)
			}
			return done
		}
	}},
	{name: "stats.probe.summary_ns_per_sample", scale: 1, build: func() func(int) int {
		xs := samples10k()
		return func(n int) int {
			done := 0
			for done < n {
				probeSink += stats.Summarize(xs).P50
				done += len(xs)
			}
			return done
		}
	}},
	{name: "stats.probe.ecdf_ns_per_sample", scale: 1, build: func() func(int) int {
		xs := samples10k()
		return func(n int) int {
			done := 0
			for done < n {
				e := stats.NewECDF(xs)
				probeSink += e.Quantile(0.5) + float64(len(e.Points(100)))
				done += len(xs)
			}
			return done
		}
	}},
	{name: "stats.probe.fixeddist_ns_per_add", scale: 1, build: func() func(int) int {
		xs, d := samples10k(), stats.NewFixedDist(0.5, 600)
		return func(n int) int {
			for i := 0; i < n; i++ {
				d.Observe(xs[i%len(xs)])
			}
			probeSink += d.Quantile(0.5)
			return n
		}
	}},
	{name: "obs.probe.counter_ns_per_inc", scale: 1, build: func() func(int) int {
		ctr := obs.NewRegistry().Counter("probe")
		return func(n int) int {
			for i := 0; i < n; i++ {
				ctr.Inc()
			}
			probeSink += float64(ctr.Value())
			return n
		}
	}},
	{name: "core.testbed_build_ms", scale: 1e-6, build: func() func(int) int {
		return func(n int) int {
			for i := 0; i < n; i++ {
				tb := core.NewTestbed(core.DefaultConfig())
				probeSink += float64(len(tb.Anchors))
			}
			return n
		}
	}},
}
