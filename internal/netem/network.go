package netem

import (
	"fmt"

	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// netObs bundles the network-wide link metrics and the tracer. One
// instance is shared by every link; links keep a nil pointer when
// observability is disabled, so the hot path pays a single branch.
type netObs struct {
	tr         *obs.Tracer
	sent       *obs.Counter
	delivered  *obs.Counter
	drops      [DropOutage + 1]*obs.Counter // by the reasons a link drops for
	queueDepth *obs.Histogram
}

// Network owns the nodes and links of an emulated internetwork and the
// simulation scheduler driving them.
type Network struct {
	sched    *sim.Scheduler
	nodes    map[Addr]*Node
	byName   map[string]*Node
	links    []*Link
	packetID uint64
	obs      *netObs
	sink     *obs.Sink

	// Packet/ICMP freelists and the no-recycle switch (see pool.go). The
	// freelists' high-water mark is the peak number of packets alive at
	// once; past it the datapath stops allocating. A sweep worker's next
	// network inherits them (Inherit), so the mark is reached once per
	// worker, not once per network.
	noRecycle bool
	pktFree   sim.Freelist[Packet]
	icmpFree  sim.Freelist[ICMP]
	// pools lists the other layers' freelists on the network (PoolOf);
	// poolBuf backs the first two, so listing both transports' allocates
	// nothing.
	pools   []TransportPool
	poolBuf [2]TransportPool
}

// Observe attaches an observability sink to the network: every existing
// and future link reports counters, queue-depth samples and drop trace
// events through it, and every layer built on the network afterwards (TCP
// and QUIC connections, probers, PEPs) reads it through Sink. Observing
// only reads: it changes no event the network fires. A nil sink is a no-op.
func (nw *Network) Observe(s *obs.Sink) {
	if s == nil {
		return
	}
	nw.sink = s
	reg, tr := s.Registry(), s.Tracer()
	nw.obs = &netObs{
		tr:        tr,
		sent:      reg.Counter("net.link.sent"),
		delivered: reg.Counter("net.link.delivered"),
		drops: [...]*obs.Counter{
			DropQueueFull: reg.Counter("net.link.drops.queue"),
			DropMedium:    reg.Counter("net.link.drops.medium"),
			DropOutage:    reg.Counter("net.link.drops.outage"),
		},
		queueDepth: reg.Histogram("net.link.queue_bytes", obs.SizeBounds()),
	}
	for _, l := range nw.links {
		l.obs = nw.obs
		l.obsSubj = tr.Subject(l.name)
	}
}

// Sink returns the sink the network is observed through, or nil when it
// is not: the one place a layer on the network learns whether it reports.
func (nw *Network) Sink() *obs.Sink { return nw.sink }

// CountBypassed is the network half of Link.AccountBypassed: n bypassed link
// traversals, on its own for a link not built yet (Link.Adopt, when it is).
func (nw *Network) CountBypassed(n uint64) {
	if nw.obs != nil {
		nw.obs.sent.Add(n)
		nw.obs.delivered.Add(n)
	}
}

// New creates an empty network on the given scheduler.
func New(sched *sim.Scheduler) *Network {
	return &Network{
		sched:  sched,
		nodes:  make(map[Addr]*Node),
		byName: make(map[string]*Node),
	}
}

// NewNode creates and registers a node. Names and addresses must be
// unique within the network.
func (nw *Network) NewNode(name string, addr Addr) *Node {
	if _, dup := nw.nodes[addr]; dup {
		panic(fmt.Sprintf("netem: duplicate node address %v", addr))
	}
	if _, dup := nw.byName[name]; dup {
		panic(fmt.Sprintf("netem: duplicate node name %q", name))
	}
	n := &Node{name: name, addr: addr, net: nw}
	nw.nodes[addr] = n
	nw.byName[name] = n
	return n
}

// Links returns all links (for stats aggregation).
func (nw *Network) Links() []*Link { return nw.links }

// AddLink creates a unidirectional link from a to b with the given
// configuration. The caller still has to install routes that use it.
func (nw *Network) AddLink(from, to *Node, cfg LinkConfig) *Link {
	l := &Link{
		name: from.name + "->" + to.name,
		net:  nw,
		to:   to,
		cfg:  cfg,
	}
	if nw.obs != nil {
		l.obs = nw.obs
		l.obsSubj = nw.obs.tr.Subject(l.name)
	}
	nw.links = append(nw.links, l)
	return l
}

// Connect creates a symmetric pair of links between a and b (same config
// both ways) and returns (a->b, b->a).
func (nw *Network) Connect(a, b *Node, cfg LinkConfig) (*Link, *Link) {
	return nw.AddLink(a, b, cfg), nw.AddLink(b, a, cfg)
}

func (nw *Network) nextPacketID() uint64 {
	nw.packetID++
	return nw.packetID
}
