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
	dropQueue  *obs.Counter
	dropMedium *obs.Counter
	dropOutage *obs.Counter
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

	// Packet/ICMP freelists and the no-recycle switch (see pool.go). The
	// freelists' high-water mark is the peak number of packets alive at
	// once; past it the datapath stops allocating.
	noRecycle bool
	pktFree   sim.Freelist[Packet]
	icmpFree  sim.Freelist[ICMP]
	// tcpSegPool is tcpsim's segment freelist, opaque here because netem
	// cannot import the transport: it hangs off the network to share the
	// packet pool's lifetime and single-scheduler concurrency domain.
	tcpSegPool any
}

// Observe attaches an observability sink to the network: every existing
// and future link reports counters, queue-depth samples, and
// enqueue/dequeue/drop trace events through it. A nil sink is a no-op.
func (nw *Network) Observe(s *obs.Sink) {
	if s == nil {
		return
	}
	reg, tr := s.Registry(), s.Tracer()
	nw.obs = &netObs{
		tr:         tr,
		sent:       reg.Counter("net.link.sent"),
		delivered:  reg.Counter("net.link.delivered"),
		dropQueue:  reg.Counter("net.link.drops.queue"),
		dropMedium: reg.Counter("net.link.drops.medium"),
		dropOutage: reg.Counter("net.link.drops.outage"),
		queueDepth: reg.Histogram("net.link.queue_bytes", obs.SizeBounds()),
	}
	for _, l := range nw.links {
		l.unhold() // an observed link traces every dequeue
		l.obs = nw.obs
		l.obsSubj = tr.Subject(l.name)
	}
}

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

// NodeByName returns the node with the given name, or nil.
func (nw *Network) NodeByName(name string) *Node { return nw.byName[name] }

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
