package fleet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/leo"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/stats"
)

// This file is the packet-level fleet scenario: every terminal of the
// planet-scale fleet pings its serving gateway once per interval through
// an emulated bent-pipe network, and the whole thing runs as one
// conservative PDES scenario — the simulation graph is partitioned into
// contiguous cell ranges (PartitionTerminals), each partition owns a
// netem.Network on its own sim.Scheduler, and partitions exchange packets
// only through sim.CrossEdges whose lookahead is the provable lower bound
// of the bent-pipe propagation delay.
//
// Topology per partition p (addresses in dotted-quad):
//
//	terminals 10.p.0.0/16 --(D(t)-L)--> egress 172.16.p.1
//	egress p --(L, cross edge when p!=q)--> ingress 172.16.q.2
//	ingress q --(0)--> gateways 192.168.g (those with g mod P == q)
//
// and the mirror path for echo replies. The per-terminal access links
// carry D(t)-L where D(t) is the fleet's current one-way bent-pipe delay
// and L the lookahead, so every end-to-end direction sums to exactly D(t)
// while every partition-crossing hop carries the constant L — the
// conservative engine's lookahead promise is met by construction, not by
// clamping.
//
// Determinism contract: for a fixed (config, seed, partition count) the
// outputs — TrafficResult, per-partition metrics, traces — are
// bit-identical for any ScenarioWorkers value, because workers only pick
// which CPU runs which partition (see sim.PartitionedDriver). The
// equivalence suite holds PDES output equal to the same topology run on
// one plain scheduler (the oracle in traffic_test.go).

// probeSize is the on-wire size of one ICMP probe, roughly the 100-byte
// pings the paper's RIPE Atlas campaign used.
const probeSize = 100

// maxTrafficPartitions bounds the partition count so partition indices
// fit the 10.p.0.0/16 addressing scheme.
const maxTrafficPartitions = 255

// TrafficConfig parameterizes the packet-level fleet scenario.
type TrafficConfig struct {
	// Fleet configures the underlying terminal population and epoch
	// reassignment campaign. Fleet.Horizon is the packet horizon too.
	Fleet Config
	// Interval is the per-terminal probe period (default 1s). Each
	// terminal's phase within the interval derives from its seed.
	Interval time.Duration
	// Partitions is the spatial partition count (default 16, max 255).
	// Results depend on it only through rounding-free accumulators: the
	// per-region outcome is partition-count invariant, and for a fixed
	// count the full output is byte-identical across worker counts.
	Partitions int
	// ScenarioWorkers is the number of goroutines driving PDES windows
	// (default 1). Never affects results, only wall-clock time.
	ScenarioWorkers int
	// Collector, when non-nil, receives one observability sink per
	// partition (registered as "fleettraffic/0000"...) plus the fleet
	// campaign's sink at index Partitions. Source naming goes through
	// obs.ShardSource, so exports are worker-invariant.
	Collector *obs.Collector
}

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Partitions <= 0 {
		c.Partitions = 16
	}
	if c.Partitions > maxTrafficPartitions {
		c.Partitions = maxTrafficPartitions
	}
	if c.ScenarioWorkers <= 0 {
		c.ScenarioWorkers = 1
	}
	return c
}

// TrafficLookahead returns the cross-partition lookahead for a
// constellation: the propagation delay of twice the lowest shell
// altitude, shaved by 0.1%. Any bent-pipe path travels up to a satellite
// (slant range >= altitude) and down to a gateway (same bound), so every
// one-way delay D satisfies D >= RadioDelay(2*alt) > L strictly — the
// shave only has to dominate floating-point rounding, never physics.
func TrafficLookahead(shells []leo.ShellConfig) time.Duration {
	minAlt := math.Inf(1)
	for _, sc := range shells {
		if sc.AltKm < minAlt {
			minAlt = sc.AltKm
		}
	}
	return geo.RadioDelay(2 * minAlt * 0.999)
}

// trafficAccum aggregates one region's probe outcome within one
// partition. Plain fields: each partition's accumulators are written only
// by its own goroutine during windows; merging across partitions is
// commutative (sums and FixedDist.Merge), which is what makes the
// per-region result partition-count invariant.
type trafficAccum struct {
	sent    int64
	recv    int64
	skipped int64
	rtt     stats.FixedDist // ms, same geometry as the fleet latency dist
}

// probeRef is one terminal's probe state: the stable argument for the
// allocation-free AtFunc re-arm chain. At most one probe is outstanding
// per terminal (interval >> RTT), so a seq match against the last send
// fully identifies the reply.
type probeRef struct {
	part *trafficPart
	term int32 // global index into the fleet SoA
	node *netem.Node
	seq  int
	sent sim.Time
	wait bool
	// up/down are this terminal's private access links, kept so the
	// fast-forward can credit their stats and carry their FIFO arrival
	// clamp forward in closed form.
	up, down *netem.Link
	// credit is the reusable cross-partition stats credit (see ffAbsorb's
	// cross branch): at most one is ever in flight per terminal, because
	// the credit's delivery stamp precedes the train's next fire by more
	// than the lookahead, so the window that executes it has fully
	// completed — with a barrier in between — before this terminal can
	// absorb again and rewrite the struct.
	credit ffCredit
}

// ffCredit carries the bulk stats credit an absorbed cross-partition
// probe train owes its gateway partition: k probes through the gateway
// link pair and k echo replies over the q->p return mesh crossing. It
// travels over the same cross edge real request packets use, so
// delivery respects the conservative lookahead by construction.
type ffCredit struct {
	tr   *Traffic
	g    int32 // gateway index
	from int32 // source partition p (the absorbed terminal's)
	k    uint64
}

// ffRemoteCredit executes on the gateway partition's scheduler. All
// three links it touches have their stats owned by that partition in
// full emulation too (cross-link counters are source-side, and the
// return crossing's source is the gateway partition), so the crediting
// goroutine matches the emulating one exactly.
func ffRemoteCredit(arg any) {
	c := arg.(*ffCredit)
	tr := c.tr
	tr.gwTo[c.g].AccountBypassed(c.k, 0)
	tr.gwFrom[c.g].AccountBypassed(c.k, 0)
	tr.mesh[tr.home[c.g]][c.from].AccountBypassed(c.k, 0)
}

// trafficPart is one partition's share of the scenario: a network on the
// partition's scheduler, its boundary routers, its terminal range, and
// its private accumulators.
type trafficPart struct {
	tr      *Traffic
	idx     int
	sched   *sim.Scheduler
	net     *netem.Network
	egress  *netem.Node
	ingress *netem.Node
	lo, hi  int // terminal range [lo, hi)
	probes  []probeRef
	acc     []trafficAccum
	// meshSelf is the intra-partition egress->ingress link — the one mesh
	// link fast-forwarded probe trains traverse (twice per probe).
	meshSelf *netem.Link
	// ffProbes counts probes answered in closed form by the fast-forward.
	ffProbes int64

	sink     *obs.Sink
	cSent    *obs.Counter
	cRecv    *obs.Counter
	cSkipped *obs.Counter
	hRTT     *obs.Histogram
}

// Traffic is an instantiated packet-level fleet scenario.
type Traffic struct {
	cfg       TrafficConfig
	fleet     *Fleet
	pm        *PartitionMap
	lookahead time.Duration
	horizon   sim.Time

	driver *sim.PartitionedDriver
	parts  []*trafficPart

	// Fast-forward state: precomputed integer-ns constants of the epoch
	// grid plus the topology handles the closed forms credit. ff is always
	// true outside the package's tests, which clear it after NewTraffic to
	// get the every-probe-emulated ground truth.
	ff           bool
	ivlNs        int64
	epochNs      int64
	lastEpochAt  int64 // instant of the final reassignment; delays are constant from here to the horizon
	lookNs       int64
	home         []int // gateway -> home partition, from the build-time tally
	gwTo, gwFrom []*netem.Link
	// mesh[p][q] is the boundary link from partition p's egress to q's
	// ingress (meshSelf on the diagonal); edges[p][q] is the raw cross
	// edge under it (nil on the diagonal). The
	// cross-partition fast-forward credits the p-owned request crossing
	// directly and sends the q-owned half of the credit over the edge.
	mesh  [][]*netem.Link
	edges [][]*sim.CrossEdge
}

func terminalAddr(part, i int) netem.Addr {
	return netem.Addr(10<<24 | part<<16 | i)
}

func egressAddr(part int) netem.Addr {
	return netem.Addr(172<<24 | 16<<16 | part<<8 | 1)
}

func ingressAddr(part int) netem.Addr {
	return netem.Addr(172<<24 | 16<<16 | part<<8 | 2)
}

func gatewayAddr(g int) netem.Addr {
	return netem.Addr(192<<24 | 168<<16 | g)
}

// NewTraffic builds the scenario: fleet placement, partition map, one
// network per partition, the mesh of boundary links (cross edges where
// they span partitions), and every terminal's probe chain.
func NewTraffic(cfg TrafficConfig) *Traffic {
	tr := prepareTraffic(cfg)
	tr.driver = sim.NewPartitionedDriver(tr.fleet.cfg.Seed, tr.pm.Parts)
	scheds := make([]*sim.Scheduler, tr.pm.Parts)
	for p := range scheds {
		scheds[p] = tr.driver.Scheduler(p)
	}
	tr.build(scheds)
	return tr
}

// prepareTraffic does everything that comes before the engine: defaults,
// the fleet, the partition map and the fast-forward's constants. What is
// left is build on one scheduler per partition — the driver's, or in the
// tests' single-scheduler oracle a plain one.
func prepareTraffic(cfg TrafficConfig) *Traffic {
	cfg = cfg.withDefaults()
	var fleetSink *obs.Sink
	if cfg.Collector != nil {
		fleetSink = obs.NewSink(0)
		cfg.Fleet.Obs = fleetSink
	}
	f := New(cfg.Fleet)
	tr := &Traffic{
		cfg:       cfg,
		fleet:     f,
		lookahead: TrafficLookahead(f.cfg.Shells),
		horizon:   sim.Time(int64(f.cfg.Horizon)),
	}
	tr.ff = true
	tr.ivlNs = int64(cfg.Interval)
	tr.epochNs = int64(f.cfg.Epoch)
	tr.lookNs = int64(tr.lookahead)
	tr.lastEpochAt = int64(tr.epochs()-1) * tr.epochNs
	tr.pm = f.PartitionTerminals(cfg.Partitions)
	if cfg.Collector != nil {
		// The fleet campaign's sink takes the index after the partitions'
		// own, which build registers as it creates them.
		cfg.Collector.Add(obs.ShardSource("fleettraffic", tr.pm.Parts), fleetSink)
	}
	return tr
}

// epochs is the number of fleet reassignments in the horizon, at least one.
func (tr *Traffic) epochs() int {
	return max(1, int(tr.fleet.cfg.Horizon/tr.fleet.cfg.Epoch))
}

// build wires the whole topology onto one scheduler per partition in a
// fixed order — partitions ascending, and within the mesh pass
// source-major — so cross-edge creation order (and with it every
// partition's inbox drain order) is a pure function of the configuration.
func (tr *Traffic) build(scheds []*sim.Scheduler) {
	f := tr.fleet
	nParts := len(scheds)
	look := tr.lookahead

	// Pass 1: networks, routers, gateway and terminal nodes.
	for p := 0; p < nParts; p++ {
		lo, hi := int(tr.pm.TermStart[p]), int(tr.pm.TermStart[p+1])
		if hi-lo >= 1<<16 {
			panic(fmt.Sprintf("fleet: partition %d holds %d terminals, exceeding the 10.p.0.0/16 address space", p, hi-lo))
		}
		pt := &trafficPart{tr: tr, idx: p, sched: scheds[p], lo: lo, hi: hi}
		pt.net = netem.New(pt.sched)
		if tr.cfg.Collector != nil {
			pt.sink = obs.NewSink(0)
			tr.cfg.Collector.Add(obs.ShardSource("fleettraffic", p), pt.sink)
			pt.net.Observe(pt.sink)
			reg := pt.sink.Registry()
			pt.cSent = reg.Counter("traffic.probes_sent")
			pt.cRecv = reg.Counter("traffic.probes_recv")
			pt.cSkipped = reg.Counter("traffic.probes_skipped")
			pt.hRTT = reg.Histogram("traffic.rtt_ns", obs.DurationBounds())
		}
		pt.egress = pt.net.NewNode(fmt.Sprintf("egress%d", p), egressAddr(p))
		pt.ingress = pt.net.NewNode(fmt.Sprintf("ingress%d", p), ingressAddr(p))
		pt.acc = make([]trafficAccum, len(f.regions))
		for ri := range pt.acc {
			pt.acc[ri].rtt = stats.NewFixedDist(0.5, 600)
		}
		pt.probes = make([]probeRef, hi-lo)
		tr.parts = append(tr.parts, pt)
	}

	// Pass 2: the boundary mesh. Source-major order fixes each
	// destination's cross-edge list (ascending source), and with it the
	// deterministic inbox drain order inside sim.PartitionedDriver.
	mesh := make([][]*netem.Link, nParts)
	edges := make([][]*sim.CrossEdge, nParts)
	meshCfg := netem.LinkConfig{Delay: netem.ConstantDelay(look)}
	for p := 0; p < nParts; p++ {
		mesh[p] = make([]*netem.Link, nParts)
		edges[p] = make([]*sim.CrossEdge, nParts)
		for q := 0; q < nParts; q++ {
			if p == q {
				mesh[p][q] = tr.parts[p].net.AddLink(tr.parts[p].egress, tr.parts[p].ingress, meshCfg)
				tr.parts[p].meshSelf = mesh[p][q]
				continue
			}
			edge, err := tr.driver.Connect(p, q, look)
			if err != nil {
				panic(err)
			}
			edges[p][q] = edge
			mesh[p][q] = tr.parts[p].net.AddCrossLink(tr.parts[p].egress, tr.parts[q].ingress, edge, meshCfg)
		}
	}
	tr.mesh, tr.edges = mesh, edges

	// Pass 3: gateways and routes. Each gateway is homed in the partition
	// owning its own grid cell: assignment picks the gateway with the
	// shortest slant range from the (roughly overhead) serving satellite,
	// so a terminal's gateway is almost always geographically nearby, and
	// homing by the gateway's position keeps most probes intra-partition —
	// cross-edge traffic (and with it the conservative engine's per-window
	// overhead) scales with the partition map's real cut, not with the
	// gateway count. The mapping is a pure function of (config, partition
	// count). Every egress
	// router can still reach every gateway through the mesh, and routes
	// replies by terminal /16 prefix, so homing never affects delivery or
	// delay — only which edges carry the packets, and with them which
	// partition owns the stats the fast-forward's cross branch must
	// credit remotely.
	home := make([]int, len(f.cfg.Gateways))
	for g, gwc := range f.cfg.Gateways {
		home[g] = int(tr.pm.CellPart[f.grid.cellOf(gwc.Pos.LatDeg, gwc.Pos.LonDeg)])
	}
	tr.home = home
	tr.gwTo = make([]*netem.Link, len(f.cfg.Gateways))
	tr.gwFrom = make([]*netem.Link, len(f.cfg.Gateways))
	for g := range f.cfg.Gateways {
		p := home[g]
		pt := tr.parts[p]
		gw := pt.net.NewNode(fmt.Sprintf("gw%d", g), gatewayAddr(g))
		gw.EchoResponder = true
		toGw := pt.net.AddLink(pt.ingress, gw, netem.LinkConfig{})
		fromGw := pt.net.AddLink(gw, pt.egress, netem.LinkConfig{})
		gw.SetDefaultRoute(fromGw)
		pt.ingress.AddRoute(gw.Addr(), toGw)
		tr.gwTo[g], tr.gwFrom[g] = toGw, fromGw
	}
	for p := 0; p < nParts; p++ {
		pt := tr.parts[p]
		for g := range f.cfg.Gateways {
			pt.egress.AddRoute(gatewayAddr(g), mesh[p][home[g]])
		}
		for q := 0; q < nParts; q++ {
			pt.egress.AddPrefixRoute(terminalAddr(q, 0), 16, mesh[p][q])
		}
	}

	// Pass 4: terminals — access links carrying D(t)-L, reply handlers,
	// and the first probe of each re-arm chain.
	interval := int64(tr.cfg.Interval)
	for p := 0; p < nParts; p++ {
		pt := tr.parts[p]
		for t := pt.lo; t < pt.hi; t++ {
			t := t
			node := pt.net.NewNode(fmt.Sprintf("term%d", t), terminalAddr(p, t-pt.lo))
			access := netem.LinkConfig{
				Delay: func(sim.Time) time.Duration { return time.Duration(f.delayNs[t]) - look },
				Down:  func(sim.Time) bool { return f.delayNs[t] < 0 },
			}
			up := pt.net.AddLink(node, pt.egress, access)
			down := pt.net.AddLink(pt.ingress, node, access)
			node.SetDefaultRoute(up)
			pt.ingress.AddRoute(node.Addr(), down)

			ref := &pt.probes[t-pt.lo]
			ref.part, ref.term, ref.node = pt, int32(t), node
			ref.up, ref.down = up, down
			node.Bind(netem.ProtoICMP, 0, func(pkt *netem.Packet) {
				ic, ok := pkt.Payload.(*netem.ICMP)
				if !ok || ic.Type != netem.ICMPEchoReply || !ref.wait || ic.Seq != ref.seq {
					return
				}
				ref.wait = false
				rtt := pt.sched.Now().Sub(ref.sent)
				a := &pt.acc[f.region[t]]
				a.recv++
				a.rtt.Observe(float64(rtt) / 1e6)
				pt.cRecv.Inc()
				pt.hRTT.Observe(int64(rtt))
			})
			// Phase within the interval derives from the terminal's own
			// seed: probe instants are a pure function of placement,
			// whatever engine drives the partitions.
			pt.sched.AtFunc(sim.Time(int64(f.seed[t]%uint64(interval))), probeFire, ref)
		}
	}
}

// ffAbsorb tries to answer this probe fire — and the remainder of its
// steady-state train — in closed form, without emulating a single
// packet. It exploits the scenario's piecewise-constant structure: the
// fleet arrays (delayNs, gw) are written only at epoch barriers, so
// between `now` and the next boundary every one of this terminal's
// probes traverses the same six queue-less hops with the same constant
// delays, and the outcome of each is a pure function of its fire
// instant. The absorbed train is provably bit-identical to emulation:
//
//   - Every hop's send happens strictly inside the constant window
//     (the last reply lands at tau+2d < constEnd and d > L, so the
//     last down-link send at tau+d+L is earlier still), so no virtual
//     packet ever sees a delay from the next epoch.
//   - rtt < interval means each reply lands before the next fire —
//     exactly one probe outstanding, seq always matches.
//   - The FIFO clamp on the private access links is handled exactly:
//     within the window raw arrivals grow monotonically (constant d),
//     so the clamp can only bind against carryover from a previous
//     epoch — the entry check below — and the final clamp state is
//     restored through AccountBypassed's max-merge.
//   - The shared mesh/gateway links have constant delay, so real sends
//     (always chronological) can never be clamped; their clamp state is
//     deliberately NOT advanced to a virtual future arrival, which
//     could otherwise clamp another terminal's live packet in a way
//     full emulation never would.
//   - A train homed to a remote-partition gateway absorbs too: the
//     cross crossings carry the same constant lookahead both ways, so
//     the raw access-link arrivals — and with them every eligibility
//     bound above — are identical to the intra-partition case. Only
//     the stats ownership differs: the gateway pair and the return
//     crossing are counted by the gateway partition in full emulation,
//     so their credit travels over the request cross edge (stamped
//     inside the conservative horizon by the same d > L bound real
//     packets rely on) and lands as one remote event — which also
//     keeps processed+skipped exactly equal to full emulation's event
//     count.
//
// Anything aperiodic — epoch boundary inside the train, a reply that
// would cross the boundary or the horizon, clamp carryover — fails an
// eligibility check and falls back to plain emulation for this fire
// (return false); the next fire retries. Outage epochs absorb
// trivially: the probe is never transmitted, so the whole window's
// skips collapse into counter arithmetic.
func ffAbsorb(ref *probeRef) bool {
	pt := ref.part
	tr := pt.tr
	f := tr.fleet
	t := int(ref.term)
	nowNs := int64(pt.sched.Now())
	ivl := tr.ivlNs
	constEnd := int64(tr.horizon)
	if nowNs < tr.lastEpochAt {
		constEnd = (nowNs/tr.epochNs + 1) * tr.epochNs
	}
	a := &pt.acc[f.region[t]]

	d := f.delayNs[t]
	g := f.gw[t]
	if d < 0 || g < 0 {
		// Outage: every fire up to the boundary is a skip. The re-arm
		// keeps the terminal's phase grid, so the first fire at or past
		// the boundary re-evaluates against the reassigned fleet.
		k := (constEnd-1-nowNs)/ivl + 1
		a.skipped += k
		pt.cSkipped.Add(uint64(k))
		pt.ffProbes += k
		pt.sched.CreditSkipped(uint64(k - 1))
		if next := sim.Time(nowNs + k*ivl); next < tr.horizon {
			pt.sched.AtFunc(next, probeFire, ref)
		}
		return true
	}

	rtt := 2 * d
	if rtt >= ivl || nowNs+rtt >= constEnd {
		// Overlapping probes, or a train too close to the boundary (its
		// reply would land in the next window, or — at the horizon —
		// never land at all, which plain emulation reproduces as an
		// in-flight loss).
		return false
	}
	if sim.Time(nowNs+d-tr.lookNs) < ref.up.LastArrival() ||
		sim.Time(nowNs+rtt) < ref.down.LastArrival() {
		// A previous epoch's larger delay left a FIFO clamp that would
		// bind on this fire; emulate it (the clamp applies identically
		// there) and retry on the next, whose raw arrivals are later.
		return false
	}

	// k fires at now, now+ivl, ..., last — the longest prefix of the
	// train whose replies all land strictly before the boundary.
	k := (constEnd-rtt-1-nowNs)/ivl + 1
	last := nowNs + (k-1)*ivl
	ref.seq += int(k)
	ref.sent = sim.Time(last)
	ref.wait = false
	a.sent += k
	a.recv += k
	a.rtt.ObserveN(float64(rtt)/1e6, k)
	pt.cSent.Add(uint64(k))
	pt.cRecv.Add(uint64(k))
	pt.hRTT.ObserveN(rtt, uint64(k))
	// Per probe: one packet up, two mesh traversals (request + echo),
	// one each through the gateway pair, one packet down.
	kk := uint64(k)
	ref.up.AccountBypassed(kk, sim.Time(last+d-tr.lookNs))
	ref.down.AccountBypassed(kk, sim.Time(last+rtt))
	pt.ffProbes += k
	if q := tr.home[g]; q == pt.idx {
		pt.meshSelf.AccountBypassed(2*kk, 0)
		tr.gwTo[g].AccountBypassed(kk, 0)
		tr.gwFrom[g].AccountBypassed(kk, 0)
		// Each emulated probe costs seven events (the fire plus six
		// deliveries, one per queue-less hop); this fire's own event did
		// execute.
		pt.sched.CreditSkipped(7*kk - 1)
	} else {
		// Remote-homed gateway: credit the p-owned request crossing
		// here; the q-owned gateway pair and return crossing travel as
		// one ffCredit over the request edge. The stamp now+d clears the
		// edge's lookahead (d > L strictly) and precedes the train's
		// next possible fire by more than a window, so reusing
		// ref.credit is race-free. Seven events per probe minus the two
		// that execute (this fire and the credit delivery).
		tr.mesh[pt.idx][q].AccountBypassed(kk, 0)
		ref.credit = ffCredit{tr: tr, g: g, from: int32(pt.idx), k: kk}
		tr.edges[pt.idx][q].Send(sim.Time(nowNs+d), ffRemoteCredit, &ref.credit)
		pt.sched.CreditSkipped(7*kk - 2)
	}
	if next := sim.Time(last + ivl); next < tr.horizon {
		pt.sched.AtFunc(next, probeFire, ref)
	}
	return true
}

// probeFire sends one ICMP echo probe and re-arms the chain. It is a
// package-level EventFunc with a stable *probeRef argument, so the whole
// probe machinery schedules allocation-free after build.
func probeFire(arg any) {
	ref := arg.(*probeRef)
	pt := ref.part
	tr := pt.tr
	if tr.ff && ffAbsorb(ref) {
		return
	}
	t := int(ref.term)
	now := pt.sched.Now()
	if next := now.Add(tr.cfg.Interval); next < tr.horizon {
		pt.sched.AtFunc(next, probeFire, ref)
	}
	f := tr.fleet
	if f.delayNs[t] < 0 || f.gw[t] < 0 {
		// Outage epoch: the dish has no serving satellite (or no
		// reachable gateway), so the probe is never transmitted.
		pt.acc[f.region[t]].skipped++
		pt.cSkipped.Inc()
		return
	}
	ref.seq++
	ref.sent = now
	ref.wait = true
	pkt := pt.net.NewPacket()
	pkt.Dst = gatewayAddr(int(f.gw[t]))
	pkt.Proto = netem.ProtoICMP
	pkt.Size = probeSize
	ic := pt.net.NewICMP()
	ic.Type = netem.ICMPEchoRequest
	ic.Seq = ref.seq
	pkt.Payload = ic
	ref.node.Send(pkt)
	pt.acc[f.region[t]].sent++
	pt.cSent.Inc()
}

// Run executes the scenario to the horizon and returns the merged result.
// Each fleet epoch — reassignment plus the beam/accounting pass — executes
// as a barrier global: single-threaded, with every partition's clock
// exactly at the epoch instant, so the shared fleet arrays are never
// written while a window runs.
func (tr *Traffic) Run() *TrafficResult {
	f := tr.fleet
	defer f.Close()
	epochs := tr.epochs()
	for e := 0; e < epochs; e++ {
		at := sim.Time(int64(e) * int64(f.cfg.Epoch))
		tr.driver.GlobalAt(at, func(at sim.Time) { f.RunEpoch(e, at) })
	}
	tr.driver.Run(tr.horizon, tr.cfg.ScenarioWorkers)
	res := tr.result(f.result(epochs))
	res.Windows, res.Events = tr.driver.Windows, tr.driver.Events()
	return res
}

// RunTraffic builds and runs a packet-level fleet scenario in one call.
func RunTraffic(cfg TrafficConfig) *TrafficResult {
	return NewTraffic(cfg).Run()
}

// FastForwarded returns how many probe fires the analytic fast-forward
// absorbed in closed form. Deliberately not part of TrafficResult: it
// counts engine work saved, while every TrafficResult field is the same
// whether a probe was absorbed or emulated.
func (tr *Traffic) FastForwarded() int64 {
	var n int64
	for _, pt := range tr.parts {
		n += pt.ffProbes
	}
	return n
}

// EventsSkipped returns how many scheduler events the fast-forward
// displaced — the work emulating every probe would have executed.
func (tr *Traffic) EventsSkipped() uint64 { return tr.driver.EventsSkipped() }

// TrafficResult is the merged outcome of a packet-level fleet scenario.
// All fields except Windows and Events are invariant to both the
// partition count and the worker count; Windows/Events additionally
// depend on the partition count (more partitions, more cross traffic) but
// never on workers.
type TrafficResult struct {
	Terminals  int
	Partitions int
	// Windows counts PDES barrier windows; Events counts executed
	// simulation events.
	Windows uint64
	Events  uint64

	ProbesSent    int64
	ProbesRecv    int64
	ProbesSkipped int64

	// Fleet is the embedded epoch campaign's per-region result.
	Fleet *Result
	// Regions is the per-region probe outcome, sorted by region name.
	Regions []TrafficRegionResult
}

// TrafficRegionResult summarizes one region's probes.
type TrafficRegionResult struct {
	Region  string
	Sent    int64
	Recv    int64
	Skipped int64
	// LossPct is the share of sent probes without a reply by the
	// horizon. The emulated links are lossless, so this counts probes
	// still in flight when the campaign ends.
	LossPct float64
	// Packet-level RTT quantiles in milliseconds; these come from the
	// emulated datapath, not from geometry queries, and land within one
	// histogram bucket of the fleet campaign's analytic latency.
	RTTP50Ms float64
	RTTP95Ms float64
}

// result merges the per-partition accumulators in partition order; the
// engine counters (Windows, Events) are the caller's to fill in.
func (tr *Traffic) result(fl *Result) *TrafficResult {
	res := &TrafficResult{
		Terminals:  len(tr.fleet.sat),
		Partitions: len(tr.parts),
		Fleet:      fl,
	}
	merged := make([]trafficAccum, len(tr.fleet.regions))
	for ri := range merged {
		merged[ri].rtt = stats.NewFixedDist(0.5, 600)
	}
	for _, pt := range tr.parts {
		for ri := range pt.acc {
			merged[ri].sent += pt.acc[ri].sent
			merged[ri].recv += pt.acc[ri].recv
			merged[ri].skipped += pt.acc[ri].skipped
			merged[ri].rtt.Merge(&pt.acc[ri].rtt)
		}
	}
	for ri, name := range tr.fleet.regions {
		a := &merged[ri]
		rr := TrafficRegionResult{
			Region:   name,
			Sent:     a.sent,
			Recv:     a.recv,
			Skipped:  a.skipped,
			RTTP50Ms: a.rtt.Quantile(0.50),
			RTTP95Ms: a.rtt.Quantile(0.95),
		}
		if a.sent > 0 {
			rr.LossPct = 100 * float64(a.sent-a.recv) / float64(a.sent)
		}
		res.ProbesSent += a.sent
		res.ProbesRecv += a.recv
		res.ProbesSkipped += a.skipped
		res.Regions = append(res.Regions, rr)
	}
	sort.Slice(res.Regions, func(i, j int) bool {
		return res.Regions[i].Region < res.Regions[j].Region
	})
	return res
}
