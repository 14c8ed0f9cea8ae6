package core

import (
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/nat"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/pep"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/tcpsim"
	"starlinkperf/internal/web"
)

// Site coordinates of the testbed.
var (
	posLouvain  = geo.LatLon{LatDeg: 50.67, LonDeg: 4.61}
	posAms      = geo.LatLon{LatDeg: 52.37, LonDeg: 4.90}
	posFra      = geo.LatLon{LatDeg: 50.11, LonDeg: 8.68}
	posTeleport = geo.LatLon{LatDeg: 48.78, LonDeg: 1.99} // Rambouillet
)

// SatComParams models the GEO access.
type SatComParams struct {
	// DownMbps and UpMbps are the plan's shaped rates ("up to 100/10").
	DownMbps, UpMbps float64
	// SatLonDeg parks the GEO satellite.
	SatLonDeg float64
	// Overhead is the per-direction DVB-S2 framing/scheduling delay on
	// top of the geometric bent pipe.
	Overhead time.Duration
	// Queue depths (GEO gear buffers deeply).
	QueueDownBytes, QueueUpBytes int
	// MediumLossPct is the bursty radio loss.
	MediumLossPct float64
}

// DefaultSatComParams returns the calibrated GEO parameters.
func DefaultSatComParams() SatComParams {
	return SatComParams{
		DownMbps: 88, UpMbps: 5.0,
		SatLonDeg:      9,
		Overhead:       52 * time.Millisecond,
		QueueDownBytes: 8 << 20,
		QueueUpBytes:   384 << 10,
		MediumLossPct:  0.05,
	}
}

// LoadEpisode adds extra one-way delay during a campaign window (the
// paper's late-April RTT bump).
type LoadEpisode struct {
	Start, End  time.Duration
	ExtraOneWay time.Duration
}

// webSites is the web corpus size: the paper's top-120 sites for Belgium.
const webSites = 120

// Config parameterizes the whole testbed.
type Config struct {
	Seed     uint64
	Starlink StarlinkParams
	SatCom   SatComParams
	// Speedtest overrides the Ookla-like client configuration used by
	// the speedtest campaigns. The zero value (Connections == 0) means
	// measure.DefaultSpeedtestConfig().
	Speedtest measure.SpeedtestConfig
	// InitialShellFraction populates only part of the Gen1 shell at
	// campaign start; FleetGrowthAt completes it mid-campaign (the
	// paper's Feb-11 step). Zero values disable the scenario.
	InitialShellFraction float64
	FleetGrowthAt        time.Duration
	// Load reproduces the late-April RTT increase.
	Load LoadEpisode
	// DisableSatComPEP removes the dual PEP from the SatCom path (the
	// ablation showing what the proxies buy).
	DisableSatComPEP bool
	// Transport selects the stack shared by the QUIC and TCP models. The
	// zero value is the paper's and changes nothing.
	Transport Transport
}

// DefaultConfig returns the calibrated testbed configuration.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Starlink:             DefaultStarlinkParams(),
		SatCom:               DefaultSatComParams(),
		InitialShellFraction: 1.0,
	}
}

// Anchor is one latency target.
type Anchor struct {
	Name   string
	Region string // "BE", "NL", "DE", "US-East", "US-West", "SG"
	Node   *netem.Node
}

// Testbed is the fully wired emulated campaign environment.
type Testbed struct {
	Cfg   Config
	Sched *sim.Scheduler
	Net   *netem.Network

	// Vantage points.
	PCStarlink, PCWired, PCSatCom *netem.Node

	// Starlink plumbing.
	Shell    *leo.Shell
	Terminal *leo.Terminal
	access   *starlinkAccess
	DownLink *netem.Link // stargw -> cpe
	UpLink   *netem.Link // cpe -> stargw
	CPE      *netem.Node
	StarGW   *netem.Node

	// SatCom plumbing.
	SatModem    *netem.Node
	Teleport    *netem.Node
	ModemPEP    *pep.Proxy
	TeleportPEP *pep.Proxy

	// Destinations.
	Anchors      []Anchor
	OoklaServers []netem.Addr
	UCLServer    *netem.Node
	H3Server     *measure.H3Server
	WebPool      []*netem.Node
	Sites        []web.Site

	// Shared protocol configs.
	WebTCP   tcpsim.Config
	QUICConf quic.Config
	// Sessions is the testbed-owned QUIC session-ticket cache; the
	// modern transport threads it into QUICConf (0-RTT is modern-only)
	// so resumption survives the campaigns' endpoint-per-transfer churn.
	Sessions *quic.SessionCache
}

// terrLink builds a terrestrial link config between two sites.
func terrLink(a, b geo.LatLon, stretch float64, extra time.Duration, rateBps float64) netem.LinkConfig {
	return netem.LinkConfig{
		RateBps:    rateBps,
		Delay:      netem.ConstantDelay(geo.FiberRouteDelay(a, b, stretch) + extra),
		QueueBytes: 16 << 20,
	}
}

// NewTestbed wires the full environment, unobserved.
func NewTestbed(cfg Config) *Testbed { return newTestbed(cfg, nil) }

// newTestbed wires the full environment on a network observed through
// sink (nil: unobserved). The network is the one attachment point: every
// layer built on it below reads the sink from there.
func newTestbed(cfg Config, sink *obs.Sink) *Testbed {
	sched := sim.NewScheduler(cfg.Seed)
	nw := netem.New(sched)
	tb := &Testbed{Cfg: cfg, Sched: sched, Net: nw}
	nw.Observe(sink)

	// --- Constellation & terminal -----------------------------------
	if cfg.InitialShellFraction > 0 && cfg.InitialShellFraction < 1 {
		tb.Shell = leo.NewPartialShell(leo.StarlinkGen1(), cfg.InitialShellFraction)
	} else {
		tb.Shell = leo.NewShell(leo.StarlinkGen1())
	}
	con := leo.NewConstellation(tb.Shell)
	gateways := []leo.Gateway{
		{Name: "nl-gw", Pos: posAms, PoP: "AMS"},
		{Name: "de-gw", Pos: posFra, PoP: "FRA"},
	}
	tb.Terminal = leo.NewTerminal(leo.DefaultTerminalConfig(posLouvain), con, gateways)
	tb.Terminal.Observe(sink.Registry())
	tb.access = &starlinkAccess{
		params:   cfg.Starlink,
		terminal: tb.Terminal,
		seed:     cfg.Seed ^ 0xabcdef,
		popPos:   map[string]geo.LatLon{"AMS": posAms, "FRA": posFra},
	}
	if cfg.Load.ExtraOneWay > 0 {
		start, end := sim.Time(cfg.Load.Start), sim.Time(cfg.Load.End)
		tb.access.extraDelay = func(at sim.Time) time.Duration {
			if at >= start && at < end {
				return cfg.Load.ExtraOneWay
			}
			return 0
		}
	}
	if cfg.FleetGrowthAt > 0 {
		sched.At(sim.Time(cfg.FleetGrowthAt), func() {
			shCfg := tb.Shell.Config()
			for p := 0; p < shCfg.Planes; p++ {
				for i := 0; i < shCfg.SatsPerPlane; i++ {
					tb.Shell.SetEnabled(p, i, true)
				}
			}
		})
	}

	// --- Core topology ----------------------------------------------
	popAMS := nw.NewNode("pop-ams", netem.MustParseAddr("62.115.14.1"))
	popFRA := nw.NewNode("pop-fra", netem.MustParseAddr("62.115.14.2"))
	af, fa := nw.Connect(popAMS, popFRA, terrLink(posAms, posFra, 1.6, 300*time.Microsecond, 100e9))
	popAMS.AddRoute(popFRA.Addr(), af)
	popFRA.SetDefaultRoute(fa)

	// attach wires a leaf (or subnet router) under a hub.
	attach := func(leaf, hub *netem.Node, cfgLink netem.LinkConfig) (up, down *netem.Link) {
		u, d := nw.Connect(leaf, hub, cfgLink)
		leaf.SetDefaultRoute(u)
		hub.AddRoute(leaf.Addr(), d)
		return u, d
	}

	// --- Starlink branch --------------------------------------------
	tb.PCStarlink = nw.NewNode("pc-starlink", netem.MustParseAddr("192.168.1.2"))
	tb.CPE = nw.NewNode("cpe", netem.MustParseAddr("192.168.1.1"))
	tb.StarGW = nw.NewNode("stargw", netem.MustParseAddr("100.64.0.1"))

	lan := netem.LinkConfig{RateBps: 1e9, Delay: netem.ConstantDelay(300 * time.Microsecond), QueueBytes: 4 << 20}
	pcUp, pcDown := nw.Connect(tb.PCStarlink, tb.CPE, lan)
	tb.PCStarlink.SetDefaultRoute(pcUp)
	tb.CPE.AddRoute(tb.PCStarlink.Addr(), pcDown)

	sp := cfg.Starlink
	rng := sched.RNG()
	upCfg := netem.LinkConfig{
		RateBps:    sp.UpMbpsMedian * 1e6,
		Delay:      tb.access.delay,
		QueueBytes: sp.QueueUpBytes,
		Down:       tb.access.down,
		Jitter:     netem.DelayJitterFunc(rng.Stream("starlink/jitter-up"), sp.JitterUp),
	}
	downCfg := netem.LinkConfig{
		RateBps:    sp.DownMbpsMedian * 1e6,
		Delay:      tb.access.delay,
		QueueBytes: sp.QueueDownBytes,
		Down:       tb.access.down,
		Jitter:     netem.DelayJitterFunc(rng.Stream("starlink/jitter-down"), sp.JitterDown),
	}
	tb.UpLink = nw.AddLink(tb.CPE, tb.StarGW, upCfg)
	// Uplink losses: a light bursty medium process plus extra loss when
	// the uplink queue runs hot (slot-grant contention under load).
	tb.UpLink.SetLoss(netem.CompositeLoss{
		mediumLoss(upLossPct(sp), 2, rng.Stream("starlink/loss-up")),
		&busyLoss{link: tb.UpLink, cap: sp.QueueUpBytes, frac: 0.45, p: 0.25, rng: rng.Stream("starlink/busy-up")},
	})
	tb.DownLink = nw.AddLink(tb.StarGW, tb.CPE, downCfg)
	// Downlink: extra randomized drops while the CPE queue is nearly
	// full — they cluster inside the DropTail episodes (so congestion
	// control sees the same episodes) but lengthen the observed loss
	// bursts, as in the paper's Figure 4a.
	tb.DownLink.SetLoss(netem.CompositeLoss{
		mediumLoss(sp.MediumLossPct, sp.MediumBurstMean, rng.Stream("starlink/loss-down2")),
		&busyLoss{link: tb.DownLink, cap: sp.QueueDownBytes, frac: 0.94, p: 0.35, rng: rng.Stream("starlink/busy-down")},
	})
	tb.CPE.SetDefaultRoute(tb.UpLink)
	tb.StarGW.AddPrefixRoute(netem.MustParseAddr("100.64.0.7"), 32, tb.DownLink)

	// Per-epoch capacity modulation, plus the observability epoch
	// sampler: handovers, serving gaps, and the epoch's outage windows
	// are sampled at each boundary. AssignmentAt and epochOutages are
	// pure (cache/hash only, no scheduler or RNG side effects), so the
	// sampler cannot perturb campaign output.
	sampleEpoch := tb.newEpochSampler()
	var modulate func()
	modulate = func() {
		now := sched.Now()
		d, u := tb.access.rates(now)
		tb.DownLink.SetRate(d)
		tb.UpLink.SetRate(u)
		if sampleEpoch != nil {
			sampleEpoch(now)
		}
		sched.After(leo.Epoch, modulate)
	}
	modulate()

	// NATs: CPE (192.168/16 -> 100.64.0.7) and CGNAT at the ground
	// station (100.64/10 -> public).
	starlinkPublic := netem.MustParseAddr("149.6.154.4")
	tb.CPE.AttachDevice(nat.New(netem.MustParseAddr("100.64.0.7"),
		nat.PrefixInside(netem.MustParseAddr("192.168.0.0"), 16)))
	tb.StarGW.AttachDevice(nat.New(starlinkPublic,
		nat.PrefixInside(netem.MustParseAddr("100.64.0.0"), 10)))

	// Ground station exits: AMS by default, FRA for German prefixes.
	gwUpAMS, amsDownGW := nw.Connect(tb.StarGW, popAMS, terrLink(posAms, posAms, 1, 400*time.Microsecond, 100e9))
	gwUpFRA, fraDownGW := nw.Connect(tb.StarGW, popFRA, terrLink(posFra, posFra, 1, 400*time.Microsecond, 100e9))
	tb.StarGW.SetDefaultRoute(gwUpAMS)
	popAMS.AddRoute(starlinkPublic, amsDownGW)
	popFRA.AddRoute(starlinkPublic, fraDownGW)

	// --- Anchors ------------------------------------------------------
	type anchorSpec struct {
		name, region string
		addr         string
		city         geo.LatLon
		viaFRA       bool
		lastMile     time.Duration
		stretch      float64
	}
	specs := []anchorSpec{
		{"be-probe-1", "BE", "193.0.10.1", geo.LatLon{LatDeg: 50.85, LonDeg: 4.35}, false, 2600 * time.Microsecond, 1.6},
		{"be-probe-2", "BE", "193.0.10.2", geo.LatLon{LatDeg: 51.05, LonDeg: 3.73}, false, 3300 * time.Microsecond, 1.6},
		{"be-probe-3", "BE", "193.0.10.3", geo.LatLon{LatDeg: 50.63, LonDeg: 5.57}, false, 4400 * time.Microsecond, 1.6},
		{"be-probe-4", "BE", "193.0.10.4", geo.LatLon{LatDeg: 50.47, LonDeg: 4.87}, false, 2200 * time.Microsecond, 1.6},
		{"ams-anchor-1", "NL", "193.0.11.1", posAms, false, 4500 * time.Microsecond, 1.6},
		{"ams-anchor-2", "NL", "193.0.11.2", posAms, false, 5200 * time.Microsecond, 1.6},
		{"nbg-anchor-1", "DE", "193.0.12.1", geo.LatLon{LatDeg: 49.45, LonDeg: 11.08}, true, 300 * time.Microsecond, 1.3},
		{"nbg-anchor-2", "DE", "193.0.12.2", geo.LatLon{LatDeg: 49.45, LonDeg: 11.08}, true, 600 * time.Microsecond, 1.3},
		{"nyc-anchor", "US-East", "193.0.13.1", geo.LatLon{LatDeg: 40.71, LonDeg: -74.01}, false, 900 * time.Microsecond, 1.28},
		{"fremont-anchor", "US-West", "193.0.13.2", geo.LatLon{LatDeg: 37.55, LonDeg: -121.99}, false, 1200 * time.Microsecond, 1.63},
		{"sin-anchor", "SG", "193.0.14.1", geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}, false, 900 * time.Microsecond, 2.2},
	}
	for _, a := range specs {
		hub, hubPos := popAMS, posAms
		if a.viaFRA {
			hub, hubPos = popFRA, posFra
		}
		n := nw.NewNode(a.name, netem.MustParseAddr(a.addr))
		n.EchoResponder = true
		attach(n, hub, terrLink(hubPos, a.city, a.stretch, a.lastMile, 10e9))
		if a.viaFRA {
			// Reach German anchors through the FRA exit and route them
			// there from AMS as well.
			tb.StarGW.AddRoute(n.Addr(), gwUpFRA)
			popAMS.AddRoute(n.Addr(), af)
		} else {
			popFRA.AddRoute(n.Addr(), fa)
		}
		tb.Anchors = append(tb.Anchors, Anchor{Name: a.name, Region: a.region, Node: n})
	}

	// --- UCLouvain campus (PC-Wired + QUIC server) -------------------
	campus := nw.NewNode("campus", netem.MustParseAddr("130.104.0.1"))
	cu, cd := nw.Connect(campus, popAMS, terrLink(posLouvain, posAms, 1.6, 700*time.Microsecond, 10e9))
	campus.SetDefaultRoute(cu)
	popAMS.AddPrefixRoute(netem.MustParseAddr("130.104.0.0"), 16, cd)
	popFRA.AddPrefixRoute(netem.MustParseAddr("130.104.0.0"), 16, fa)

	tb.PCWired = nw.NewNode("pc-wired", netem.MustParseAddr("130.104.228.10"))
	tb.UCLServer = nw.NewNode("ucl-server", netem.MustParseAddr("130.104.228.30"))
	tb.UCLServer.EchoResponder = true
	tb.PCWired.EchoResponder = true
	// Campus gear buffers exceed the QUIC flow-control cap, so the
	// wired baseline sees no queue-overflow losses (paper: 10 lost of
	// 5.8M packets on the wired sanity check).
	campusLAN := netem.LinkConfig{RateBps: 1e9, Delay: netem.ConstantDelay(150 * time.Microsecond), QueueBytes: 48 << 20}
	attach(tb.PCWired, campus, campusLAN)
	attach(tb.UCLServer, campus, campusLAN)

	// --- SatCom branch ------------------------------------------------
	sc := cfg.SatCom
	tb.PCSatCom = nw.NewNode("pc-satcom", netem.MustParseAddr("10.10.0.2"))
	tb.SatModem = nw.NewNode("sat-modem", netem.MustParseAddr("10.10.0.1"))
	tb.Teleport = nw.NewNode("teleport", netem.MustParseAddr("185.28.0.1"))
	scUp, scDown := nw.Connect(tb.PCSatCom, tb.SatModem, lan)
	tb.PCSatCom.SetDefaultRoute(scUp)
	tb.SatModem.AddRoute(tb.PCSatCom.Addr(), scDown)

	bird := leo.GeoSatellite{LonDeg: sc.SatLonDeg}
	geoOneWay := bird.BentPipeDelay(posLouvain, posTeleport) + sc.Overhead
	geoUp := netem.LinkConfig{
		RateBps:    sc.UpMbps * 1e6,
		Delay:      netem.ConstantDelay(geoOneWay),
		QueueBytes: sc.QueueUpBytes,
		Loss:       mediumLoss(sc.MediumLossPct, 4, rng.Stream("satcom/loss-up")),
	}
	geoDown := netem.LinkConfig{
		RateBps:    sc.DownMbps * 1e6,
		Delay:      netem.ConstantDelay(geoOneWay),
		QueueBytes: sc.QueueDownBytes,
		Loss:       mediumLoss(sc.MediumLossPct, 4, rng.Stream("satcom/loss-down")),
	}
	mUp := nw.AddLink(tb.SatModem, tb.Teleport, geoUp)
	mDown := nw.AddLink(tb.Teleport, tb.SatModem, geoDown)
	tb.SatModem.SetDefaultRoute(mUp)
	tb.Teleport.AddPrefixRoute(netem.MustParseAddr("10.10.0.0"), 16, mDown)

	tu, td := nw.Connect(tb.Teleport, popAMS, terrLink(posTeleport, posAms, 1.6, 500*time.Microsecond, 100e9))
	tb.Teleport.SetDefaultRoute(tu)
	popAMS.AddPrefixRoute(netem.MustParseAddr("10.10.0.0"), 16, td)
	popFRA.AddPrefixRoute(netem.MustParseAddr("10.10.0.0"), 16, fa)

	// Dual PEP with deep buffers and provisioned fixed windows on the
	// space-segment legs (down at the teleport, up at the modem), like
	// commercial I-PEPs.
	pepCfg := tcpsim.DefaultConfig()
	pepCfg.InitialRcvWnd = 12 << 20
	pepCfg.MaxRcvWnd = 64 << 20
	pepCfg.FastOpen = true
	// The fixed windows are provisioned per flow assuming the Ookla-like
	// four-connection share of the segment.
	if !cfg.DisableSatComPEP {
		tb.ModemPEP = pep.Attach(tb.SatModem, pepCfg)
		tb.ModemPEP.ServerLegCC = func(mss int) cc.CongestionController {
			return cc.NewFixed(150 << 10)
		}
		tb.TeleportPEP = pep.Attach(tb.Teleport, pepCfg)
		tb.TeleportPEP.ClientLegCC = func(mss int) cc.CongestionController {
			return cc.NewFixed(2 << 20)
		}
	}

	// --- Ookla-like speedtest servers ---------------------------------
	tb.WebTCP = tcpsim.DefaultConfig() // TLS 1.2 web mix
	cfg.Transport.applyTCP(&tb.WebTCP)
	stTCP := measure.DefaultSpeedtestConfig().TCP
	cfg.Transport.applyTCP(&stTCP)
	for _, spec := range []struct {
		name string
		addr string
		city geo.LatLon
		last time.Duration
	}{
		{"ookla-bru", "81.246.10.10", geo.LatLon{LatDeg: 50.85, LonDeg: 4.35}, 1200 * time.Microsecond},
		{"ookla-ams", "81.246.10.11", posAms, 600 * time.Microsecond},
	} {
		n := nw.NewNode(spec.name, netem.MustParseAddr(spec.addr))
		n.EchoResponder = true
		attach(n, popAMS, terrLink(posAms, spec.city, 1.6, spec.last, 10e9))
		popFRA.AddRoute(n.Addr(), fa)
		measure.NewSpeedtestServer(n, stTCP)
		tb.OoklaServers = append(tb.OoklaServers, n.Addr())
	}

	// --- QUIC server --------------------------------------------------
	tb.Sessions = quic.NewSessionCache()
	cfg.Transport.applyQUIC(&tb.QUICConf, tb.Sessions)
	tb.H3Server = measure.NewH3Server(tb.UCLServer, tb.QUICConf)
	// A plain TCP service on the server, the PEP-detection probe target.
	tcpsim.Listen(tb.UCLServer, measure.PEPPort, tb.WebTCP, nil)

	// --- Web pool ------------------------------------------------------
	webSpecs := []struct {
		addr string
		city geo.LatLon
		last time.Duration
	}{
		{"151.101.0.1", posAms, 500 * time.Microsecond},
		{"151.101.0.2", posAms, 700 * time.Microsecond},
		{"151.101.0.3", posAms, 900 * time.Microsecond},
		{"151.101.0.4", posAms, 600 * time.Microsecond},
		{"151.101.0.5", posAms, 800 * time.Microsecond},
		{"151.101.0.6", posAms, 1100 * time.Microsecond},
		{"151.101.1.1", posFra, 1500 * time.Microsecond},
		{"151.101.1.2", geo.LatLon{LatDeg: 48.86, LonDeg: 2.35}, 1700 * time.Microsecond},
		{"151.101.1.3", geo.LatLon{LatDeg: 51.51, LonDeg: -0.13}, 1600 * time.Microsecond},
		{"151.101.2.1", geo.LatLon{LatDeg: 39.04, LonDeg: -77.49}, 1400 * time.Microsecond},
	}
	for _, spec := range webSpecs {
		n := nw.NewNode("web-"+spec.addr, netem.MustParseAddr(spec.addr))
		n.EchoResponder = true
		attach(n, popAMS, terrLink(posAms, spec.city, 1.6, spec.last, 10e9))
		popFRA.AddRoute(n.Addr(), fa)
		web.Server(n, tb.WebTCP)
		tb.WebPool = append(tb.WebPool, n)
	}
	tb.Sites = web.GenerateCorpus(rng.Stream("webcorpus"), webSites)

	return tb
}

// newEpochSampler builds the per-epoch observability callback: serving
// satellite changes (handovers, gateway moves), serving gaps, and the
// epoch's scheduled outage windows. Returns nil when the network is
// unobserved so the modulation loop pays one nil test.
func (tb *Testbed) newEpochSampler() func(now sim.Time) {
	sink := tb.Net.Sink()
	if sink == nil {
		return nil
	}
	reg, tr := sink.Registry(), sink.Tracer()
	subj := tr.Subject("starlink/access")
	handovers := reg.Counter("leo.handovers")
	gwMoves := reg.Counter("leo.gateway_moves")
	gaps := reg.Counter("leo.serving_gaps")
	outages := reg.Counter("leo.outages")
	longOutages := reg.Counter("leo.outages_long")
	outageNS := reg.Histogram("leo.outage_ns", obs.DurationBounds())
	var prev leo.Assignment
	havePrev := false
	return func(now sim.Time) {
		cur := tb.Terminal.AssignmentAt(now)
		if havePrev && cur != prev {
			handovers.Inc()
			tr.Emit(now, obs.KindHandover, subj, satCode(prev), satCode(cur))
			if cur.Gateway != prev.Gateway {
				gwMoves.Inc()
			}
		}
		if !cur.OK {
			gaps.Inc()
		}
		prev, havePrev = cur, true
		wins, n := tb.access.epochOutages(tb.access.epochOf(now))
		for i := 0; i < n; i++ {
			w := wins[i]
			outages.Inc()
			long := int64(0)
			if w.long {
				longOutages.Inc()
				long = 1
			}
			outageNS.Observe(int64(w.dur))
			tr.Emit(now, obs.KindOutage, subj, int64(w.dur), long)
		}
	}
}

// satCode packs an assignment's serving satellite into one trace
// operand: shell<<32 | plane<<16 | index, or -1 for no coverage.
func satCode(a leo.Assignment) int64 {
	if !a.OK {
		return -1
	}
	return int64(a.Sat.Shell)<<32 | int64(a.Sat.Plane)<<16 | int64(a.Sat.Index)
}

// busyLoss adds loss probability while a link's queue runs above a
// fraction of its capacity — uplink slot-grant contention under load.
type busyLoss struct {
	link *netem.Link
	cap  int
	frac float64
	p    float64
	rng  *sim.RNG
}

// Lost implements netem.LossModel.
func (b *busyLoss) Lost(sim.Time) bool {
	if float64(b.link.QueuedBytes()) < b.frac*float64(b.cap) {
		return false
	}
	return b.rng.Bool(b.p)
}

// upLossPct selects the uplink medium loss rate.
func upLossPct(sp StarlinkParams) float64 {
	if sp.MediumLossPctUp > 0 {
		return sp.MediumLossPctUp
	}
	return sp.MediumLossPct
}

// mediumLoss builds the bursty radio-loss process.
func mediumLoss(pct, meanBurst float64, rng *sim.RNG) netem.LossModel {
	if pct <= 0 {
		return nil
	}
	p := pct / 100
	pbg := 1 / meanBurst
	return &netem.GilbertElliott{
		PGB:      pbg * p / (1 - p),
		PBG:      pbg,
		LossGood: 0,
		LossBad:  1,
		Rng:      rng,
	}
}

// WebResolver maps a site's domains onto the web pool, deterministically
// per (site, domain).
func (tb *Testbed) WebResolver(site *web.Site) web.Resolver {
	pool := tb.WebPool
	return func(domain int) netem.Addr {
		if domain == 0 {
			// Origins live in Europe (the corpus is the Belgian top
			// sites): never the US node.
			return pool[(site.Rank*31)%9].Addr()
		}
		return pool[(site.Rank*13+domain*7)%len(pool)].Addr()
	}
}

// AnchorAddrs returns the anchor addresses in declaration order.
func (tb *Testbed) AnchorAddrs() []netem.Addr {
	out := make([]netem.Addr, len(tb.Anchors))
	for i, a := range tb.Anchors {
		out[i] = a.Node.Addr()
	}
	return out
}
