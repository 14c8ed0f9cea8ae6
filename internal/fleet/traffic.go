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
// an emulated bent-pipe network. The fleet is split into contiguous cell
// ranges (PartitionTerminals) and each range is a self-contained shard: its
// own sim.Scheduler and netem.Network holding the shard's terminals, an
// egress/ingress router pair and an echo-responder node for every gateway.
// No packet ever leaves its shard; shards meet only at the epoch barriers,
// where the fleet epoch runs while no shard does (Run).
//
// A terminal's node, access links, ingress route and reply handler are built
// by materialize on its first emulated probe — for 99 % of a world fleet,
// never; until then its probeRef keeps the access links' account.
//
// Topology of one shard (addresses in dotted-quad; they are shard-local):
//
//	terminals 10.0.0.0/8 --(D(t)-L)--> egress 172.16.0.1
//	egress --(L)--> ingress 172.16.0.2
//	ingress --(0)--> gateways 192.168.g --(0)--> egress
//	ingress --(D(t)-L)--> terminals
//
// The per-terminal access links carry D(t)-L where D(t) is the fleet's
// current one-way bent-pipe delay and L (TrafficLookahead) the fixed leg
// between the routers, so every end-to-end direction sums to exactly D(t).
// A gateway is a stateless echo responder behind zero-delay links without a
// rate, so replicating it per shard changes no probe's path or timing.
//
// Determinism contract: the outputs — TrafficResult, merged metrics, trace
// records — do not depend on ScenarioWorkers (workers only pick which CPU
// runs which shard) and, Windows/Events aside, not on the partition count
// either: the per-region accumulators merge by integer sums. The
// equivalence suite holds the shards equal to the same topology run as one
// shard on one plain scheduler loop (the oracle in traffic_test.go).

// probeSize is the on-wire size of one ICMP probe, roughly the 100-byte
// pings the paper's RIPE Atlas campaign used.
const probeSize = 100

// TrafficConfig parameterizes the packet-level fleet scenario.
type TrafficConfig struct {
	// Fleet configures the underlying terminal population and epoch
	// reassignment campaign. Fleet.Horizon is the packet horizon too.
	Fleet Config
	// Interval is the per-terminal probe period (default 1s). Each
	// terminal's phase within the interval derives from its seed.
	Interval time.Duration
	// Partitions is the spatial partition count (default 16, at most one
	// per terminal). Results depend on it only through rounding-free
	// accumulators: the per-region outcome and the merged metrics are
	// partition-count invariant, and for a fixed count the full output is
	// byte-identical across worker counts.
	Partitions int
	// ScenarioWorkers is the number of goroutines advancing shards between
	// epoch barriers (default 1). Never affects results, only wall-clock
	// time.
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
	if c.ScenarioWorkers <= 0 {
		c.ScenarioWorkers = 1
	}
	return c
}

// TrafficLookahead returns the fixed leg of the emulated bent pipe — the
// delay of the egress->ingress hop every probe crosses twice — for a
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
// by the goroutine advancing it; merging across partitions is
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
	seq  int
	sent sim.Time
	wait bool
	// node and its private access links exist from materialize on; the
	// fast-forward credits their stats and carries their FIFO clamp forward.
	node     *netem.Node
	up, down *netem.Link
	// Until then the ref is both links' account: traversals credited to each
	// and each one's clamp state (max raw arrival, as Link.LastArrival).
	credited       uint64
	upArr, downArr sim.Time
}

// trafficPart is one shard of the scenario: a network on its own
// scheduler, the router pair, an echo node per gateway, its terminal range
// and its private accumulators.
type trafficPart struct {
	tr              *Traffic
	sched           *sim.Scheduler
	net             *netem.Network
	probes          []probeRef // one per terminal of the shard's range
	acc             []trafficAccum
	egress, ingress *netem.Node // the router pair every access link hangs off
	// meshSelf is the egress->ingress link carrying the fixed leg L; every
	// probe crosses it twice (request and echo).
	meshSelf *netem.Link
	// gwTo[g]/gwFrom[g] are the ingress->gateway and gateway->egress links
	// of this shard's echo node for gateway g.
	gwTo, gwFrom []*netem.Link
	ffStats      FastForwardStats // this shard's share of Traffic.FastForwardStats

	cSent    *obs.Counter
	cRecv    *obs.Counter
	cSkipped *obs.Counter
	hRTT     *obs.Histogram
}

// Traffic is an instantiated packet-level fleet scenario.
type Traffic struct {
	cfg     TrafficConfig
	fleet   *Fleet
	horizon sim.Time

	parts []*trafficPart

	// Fast-forward state: precomputed integer-ns constants of the epoch
	// grid. ff is always true outside the package's tests, which clear it
	// after NewTraffic to get the every-probe-emulated ground truth.
	ff          bool
	ivlNs       int64
	epochNs     int64
	lastEpochAt int64 // instant of the final reassignment; delays are constant from here to the horizon
	lookNs      int64
}

// Addresses are shard-local: every shard numbers its terminals from
// 10.0.0.0 and has the same two routers and the same gateway addresses.
const (
	egressAddr  = netem.Addr(172<<24 | 16<<16 | 1)
	ingressAddr = netem.Addr(172<<24 | 16<<16 | 2)
)

func terminalAddr(i int) netem.Addr { return netem.Addr(10<<24 | i) }

func gatewayAddr(g int) netem.Addr { return netem.Addr(192<<24 | 168<<16 | g) }

// NewTraffic builds the scenario: fleet placement, partition map, and one
// self-contained shard per partition with every terminal's probe chain.
func NewTraffic(cfg TrafficConfig) *Traffic {
	cfg = cfg.withDefaults()
	var fleetSink *obs.Sink
	if cfg.Collector != nil {
		fleetSink = obs.NewSink()
		cfg.Fleet.Obs = fleetSink
	}
	f := New(cfg.Fleet)
	tr := &Traffic{
		cfg:     cfg,
		fleet:   f,
		horizon: sim.Time(int64(f.cfg.Horizon)),
	}
	tr.ff = true
	tr.ivlNs = int64(cfg.Interval)
	tr.epochNs = int64(f.cfg.Epoch)
	tr.lookNs = int64(TrafficLookahead(f.cfg.Shells))
	tr.lastEpochAt = int64(tr.epochs()-1) * tr.epochNs
	pm := f.PartitionTerminals(cfg.Partitions)
	for p := 0; p < pm.Parts; p++ {
		tr.parts = append(tr.parts, tr.buildShard(p, int(pm.TermStart[p]), int(pm.TermStart[p+1])))
	}
	// The fleet campaign's sink takes the index after the shards' own.
	cfg.Collector.Add(obs.ShardSource("fleettraffic", pm.Parts), fleetSink)
	return tr
}

// epochs is the number of fleet reassignments in the horizon, at least one.
func (tr *Traffic) epochs() int {
	return max(1, int(tr.fleet.cfg.Horizon/tr.fleet.cfg.Epoch))
}

// buildShard wires shard p — terminals [lo, hi) — onto its own scheduler
// and network. The seed derivation string predates the shards; it stays so
// no RNG stream moves.
func (tr *Traffic) buildShard(p, lo, hi int) *trafficPart {
	f := tr.fleet
	look := time.Duration(tr.lookNs)
	if hi-lo >= 1<<24 {
		panic(fmt.Sprintf("fleet: partition %d holds %d terminals, exceeding the 10.0.0.0/8 address space", p, hi-lo))
	}
	pt := &trafficPart{tr: tr}
	pt.sched = sim.NewScheduler(sim.DeriveSeed(f.cfg.Seed, "pdes/partition", p))
	pt.net = netem.New(pt.sched)
	var subjects *obs.Tracer
	if tr.cfg.Collector != nil {
		sink := obs.NewSink()
		tr.cfg.Collector.Add(obs.ShardSource("fleettraffic", p), sink)
		pt.net.Observe(sink)
		subjects = sink.Tracer()
		reg := sink.Registry()
		pt.cSent = reg.Counter("traffic.probes_sent")
		pt.cRecv = reg.Counter("traffic.probes_recv")
		pt.cSkipped = reg.Counter("traffic.probes_skipped")
		pt.hRTT = reg.Histogram("traffic.rtt_ns", obs.DurationBounds())
	}
	pt.acc = make([]trafficAccum, len(f.regions))
	for ri := range pt.acc {
		pt.acc[ri].rtt = stats.NewFixedDist(0.5, 600)
	}

	// Routers and the fixed leg: everything leaving the egress — requests
	// and echo replies alike — crosses L to the ingress, which holds the
	// exact routes to the gateways and the terminals.
	pt.egress = pt.net.NewNode(fmt.Sprintf("egress%d", p), egressAddr)
	pt.ingress = pt.net.NewNode(fmt.Sprintf("ingress%d", p), ingressAddr)
	pt.meshSelf = pt.net.AddLink(pt.egress, pt.ingress, netem.LinkConfig{Delay: netem.ConstantDelay(look)})
	pt.egress.SetDefaultRoute(pt.meshSelf)

	// This shard's echo node for every gateway.
	pt.gwTo = make([]*netem.Link, len(f.cfg.Gateways))
	pt.gwFrom = make([]*netem.Link, len(f.cfg.Gateways))
	for g := range f.cfg.Gateways {
		gw := pt.net.NewNode(fmt.Sprintf("gw%d", g), gatewayAddr(g))
		gw.EchoResponder = true
		pt.gwTo[g] = pt.net.AddLink(pt.ingress, gw, netem.LinkConfig{})
		pt.gwFrom[g] = pt.net.AddLink(gw, pt.egress, netem.LinkConfig{})
		gw.SetDefaultRoute(pt.gwFrom[g])
		pt.ingress.AddRoute(gw.Addr(), pt.gwTo[g])
	}

	// Terminals: probe state and the first fire of each re-arm chain; the rest
	// is materialize's. Under a collector the access links' trace subjects
	// (AddLink's "from->to") are interned here, in terminal order, not at birth.
	pt.probes = make([]probeRef, hi-lo)
	for t := lo; t < hi; t++ {
		ref := &pt.probes[t-lo]
		ref.part, ref.term = pt, int32(t)
		if subjects != nil {
			subjects.Subject(fmt.Sprintf("term%d->%s", t, pt.egress.Name()))
			subjects.Subject(fmt.Sprintf("%s->term%d", pt.ingress.Name(), t))
		}
		// Phase within the interval derives from the terminal's own seed:
		// probe instants are a pure function of placement.
		pt.sched.AtFunc(sim.Time(int64(f.seed[t]%uint64(tr.ivlNs))), probeFire, ref)
	}
	return pt
}

// materialize builds the terminal's netem presence on its first emulated
// probe: node, access links carrying D(t)-L, routes and reply handler. The
// links adopt the account the ref kept, so from here on they are what they
// would be had they existed, and been credited, since t = 0.
func materialize(ref *probeRef) {
	pt := ref.part
	f := pt.tr.fleet
	t := int(ref.term)
	// Addresses are shard-local: the index within the shard's range.
	ref.node = pt.net.NewNode(fmt.Sprintf("term%d", t), terminalAddr(t-int(pt.probes[0].term)))
	access := netem.LinkConfig{
		Delay: func(sim.Time) time.Duration { return time.Duration(int64(f.delayNs[t]) - pt.tr.lookNs) },
		Down:  func(sim.Time) bool { return f.delayNs[t] < 0 },
	}
	ref.up = pt.net.AddLink(ref.node, pt.egress, access)
	ref.down = pt.net.AddLink(pt.ingress, ref.node, access)
	ref.up.Adopt(ref.credited, ref.upArr)
	ref.down.Adopt(ref.credited, ref.downArr)
	ref.node.SetDefaultRoute(ref.up)
	pt.ingress.AddRoute(ref.node.Addr(), ref.down)
	ref.node.Bind(netem.ProtoICMP, 0, func(pkt *netem.Packet) {
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
	pt.ffStats.Materialized++
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
//   - The shard's mesh/gateway links have constant delay, so real sends
//     (always chronological) can never be clamped; their clamp state is
//     deliberately NOT advanced to a virtual future arrival, which
//     could otherwise clamp another terminal's live packet in a way
//     full emulation never would.
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

	d := int64(f.delayNs[t])
	g := f.gw[t]
	if d < 0 || g < 0 {
		// Outage: every fire up to the boundary is a skip. The re-arm
		// keeps the terminal's phase grid, so the first fire at or past
		// the boundary re-evaluates against the reassigned fleet.
		k := (constEnd-1-nowNs)/ivl + 1
		a.skipped += k
		pt.cSkipped.Add(uint64(k))
		pt.ffStats.Absorbed += k
		pt.sched.CreditSkipped(uint64(k - 1))
		if next := sim.Time(nowNs + k*ivl); next < tr.horizon {
			pt.sched.AtFunc(next, probeFire, ref)
		}
		return true
	}

	rtt := 2 * d
	if rtt >= ivl {
		pt.ffStats.Overlap++ // more than one probe in flight
		return false
	}
	if nowNs+rtt >= constEnd {
		// The reply would land in the next window, or — at the horizon —
		// never, which plain emulation reproduces as an in-flight loss.
		pt.ffStats.Boundary++
		return false
	}
	upArr, downArr := ref.upArr, ref.downArr
	if ref.node != nil {
		upArr, downArr = ref.up.LastArrival(), ref.down.LastArrival()
	}
	if sim.Time(nowNs+d-tr.lookNs) < upArr || sim.Time(nowNs+rtt) < downArr {
		// A previous epoch's larger delay left a FIFO clamp that would
		// bind on this fire; emulate it (the clamp applies identically
		// there) and retry on the next, whose raw arrivals are later.
		pt.ffStats.Clamp++
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
	upArr, downArr = sim.Time(last+d-tr.lookNs), sim.Time(last+rtt)
	if ref.node != nil {
		ref.up.AccountBypassed(kk, upArr)
		ref.down.AccountBypassed(kk, downArr)
	} else {
		// Not built: the ref keeps the account; the network counts now.
		ref.credited += kk
		ref.upArr, ref.downArr = max(ref.upArr, upArr), max(ref.downArr, downArr)
		pt.net.CountBypassed(2 * kk)
	}
	pt.ffStats.Absorbed += k
	pt.meshSelf.AccountBypassed(2*kk, 0)
	pt.gwTo[g].AccountBypassed(kk, 0)
	pt.gwFrom[g].AccountBypassed(kk, 0)
	// Each emulated probe costs seven events (the fire plus six deliveries,
	// one per queue-less hop); this fire's own event did execute.
	pt.sched.CreditSkipped(7*kk - 1)
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
	if ref.node == nil {
		materialize(ref)
	}
	ref.node.Send(pkt)
	pt.acc[f.region[t]].sent++
	pt.cSent.Inc()
}

// Run executes the scenario to the horizon and returns the merged result.
// Each fleet epoch — the cell walk that reassigns and accounts — executes
// at a barrier, while no shard runs, with every shard's clock exactly at the
// epoch instant and every event before it executed, so the shared fleet
// arrays are never written while a shard runs. RunBefore's half-open window
// leaves an event at exactly the epoch instant for after the reassignment.
// Between barriers a pool of ScenarioWorkers advances the shards, which
// share nothing, so which worker runs which is invisible to the results.
func (tr *Traffic) Run() *TrafficResult {
	f := tr.fleet
	defer f.Close()
	wk := sim.NewWorkers(min(tr.cfg.ScenarioWorkers, len(tr.parts)))
	defer wk.Close()
	var until sim.Time
	advance := func(_, i int) { tr.parts[i].sched.RunBefore(until) }
	epochs := tr.epochs()
	for e := 0; e < epochs; e++ {
		at := sim.Time(int64(e) * int64(f.cfg.Epoch))
		until = at
		wk.Run(len(tr.parts), advance)
		f.RunEpoch(e, at)
	}
	until = tr.horizon
	wk.Run(len(tr.parts), advance)
	res := tr.result(f.result(epochs))
	res.Windows = uint64(epochs) + 1
	for _, pt := range tr.parts {
		res.Events += pt.sched.Processed
	}
	return res
}

// RunTraffic builds and runs a packet-level fleet scenario in one call.
func RunTraffic(cfg TrafficConfig) *TrafficResult {
	return NewTraffic(cfg).Run()
}

// FastForwardStats is the fast-forward's engine telemetry: probe fires
// absorbed in closed form, fires declined by cause, and the terminals
// that therefore had to be built. It is no part of TrafficResult or of
// any sim-clock export: it counts engine work saved, while every
// TrafficResult field is the same whether a probe was absorbed or
// emulated.
type FastForwardStats struct {
	Absorbed     int64
	Overlap      int64 // declined: RTT >= interval, probes overlap
	Boundary     int64 // declined: the reply would cross the epoch boundary or the horizon
	Clamp        int64 // declined: FIFO-clamp carryover from a previous epoch's delay
	Materialized int64 // terminals that got a netem node and links
}

// FastForwardStats sums the shards' fast-forward telemetry.
func (tr *Traffic) FastForwardStats() (sum FastForwardStats) {
	for _, pt := range tr.parts {
		sum.Absorbed += pt.ffStats.Absorbed
		sum.Overlap += pt.ffStats.Overlap
		sum.Boundary += pt.ffStats.Boundary
		sum.Clamp += pt.ffStats.Clamp
		sum.Materialized += pt.ffStats.Materialized
	}
	return sum
}

// EventsSkipped returns how many scheduler events the fast-forward
// displaced — the work emulating every probe would have executed.
func (tr *Traffic) EventsSkipped() uint64 {
	var n uint64
	for _, pt := range tr.parts {
		n += pt.sched.Skipped
	}
	return n
}

// TrafficResult is the merged outcome of a packet-level fleet scenario.
// All fields except Partitions, Windows and Events are invariant to both
// the partition count and the worker count; those three never depend on
// workers.
type TrafficResult struct {
	Terminals  int
	Partitions int
	// Windows counts barrier-to-barrier advances (epochs + 1); Events
	// counts executed simulation events.
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
