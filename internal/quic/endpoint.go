package quic

import (
	"fmt"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
)

// udpOverhead is the IPv4 + UDP header cost added to every datagram on
// the wire.
const udpOverhead = 28

// Endpoint owns a UDP port on an emulated node and multiplexes QUIC
// connections over it by connection ID.
type Endpoint struct {
	node *netem.Node
	port uint16
	rng  *sim.RNG

	conns     map[uint64]*Connection
	listening bool
	serverCfg Config
	onConn    func(*Connection)

	// rx is the receive scratch: every arriving packet is parsed into it
	// and handled before the next one arrives.
	rx parser
	// pool is the network's buffer freelist (see wirePool).
	pool *wirePool
}

// wireBuf is one serialized packet on its way through the network, carried
// as the netem packet's payload, or — the same type from the same pool — a
// reassembly chunk that out-of-order stream data waits in. A packet's
// buffer belongs to the sending endpoint from get until sendDatagram, to
// the datapath while in flight — which returns it through ReleasePayload
// at the packet's terminal point (delivery, once the receiving endpoint's
// handler returned, or a drop) — and to the pool after that. Receivers
// therefore read b only inside their handler. A chunk belongs to its
// stream until the data is delivered or the connection is torn down.
type wireBuf struct {
	b      []byte // the datagram or chunk; aliases arr unless it outgrew it
	arr    [MaxDatagramSize]byte
	owner  *wirePool // nil once shared: never recycled
	pooled bool
}

// wirePool is the QUIC freelists of one netem.Network: every endpoint on
// it serializes its packets into the pool's buffers and every connection
// on it buffers out-of-order stream data in them, and keeps its in-flight
// packets' sent records and STREAM frame structs in the pool's other two
// lists. Campaigns dial a fresh client endpoint per transfer, and a sweep
// worker's next network inherits all three lists
// (netem.Network.Inherit), so the most objects alive at once is reached
// once per sweep worker, not once per network, endpoint or connection.
// One scheduler drives a network, hence no lock. A network in no-recycle
// mode takes nothing back.
type wirePool struct {
	sim.Freelist[wireBuf]
	sent   sim.Freelist[sentPacket]
	frames sim.Freelist[StreamFrame]
	nw     *netem.Network
	// scribble makes every buffer, frame struct and sent-packet record
	// that re-enters a freelist on this network unusable (tests set it to
	// prove nothing reads recycled memory).
	scribble bool
}

// wirePoolOf returns the buffer pool of nw, creating it on first use.
func wirePoolOf(nw *netem.Network) *wirePool {
	return netem.PoolOf(nw, func(nw *netem.Network) *wirePool { return &wirePool{nw: nw} })
}

// HandOver implements netem.TransportPool: the listed buffers become nw's,
// and the listed sent records and frame structs, which carry no owner, go
// with them.
func (p *wirePool) HandOver(nw *netem.Network) {
	to := wirePoolOf(nw)
	for _, w := range p.All() {
		w.owner = to
	}
	to.Adopt(&p.Freelist)
	to.sent.Adopt(&p.sent)
	to.frames.Adopt(&p.frames)
}

// Pools implements netem.TransportPool: "quic wire" counts wire buffers
// and reassembly chunks together.
func (p *wirePool) Pools(f func(name string, st sim.PoolStats)) {
	f("quic wire", p.Stats())
	f("quic sent", p.sent.Stats())
	f("quic frame", p.frames.Stats())
}

// get returns an empty buffer owned by the pool.
func (p *wirePool) get() *wireBuf {
	w := p.Get()
	if w != nil {
		w.pooled = false
	} else {
		w = &wireBuf{owner: p}
	}
	w.b = w.arr[:0]
	return w
}

// put lists w, drawn from p, for the next get. An already-pooled buffer
// is inert, and a network in no-recycle mode reuses none.
func (p *wirePool) put(w *wireBuf) {
	if w.pooled || !p.nw.Recycling() {
		return
	}
	if p.scribble {
		scribble(w.arr[:])
	}
	w.b, w.pooled = nil, true
	p.Put(w)
}

// ReleasePayload implements netem.PayloadReleaser: the buffer returns to
// its pool.
func (w *wireBuf) ReleasePayload() {
	if p := w.owner; p != nil {
		p.put(w)
	}
}

// scribble overwrites a recycled buffer so that a stale reader cannot
// mistake it for the payload it used to hold.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// NewEndpoint binds a QUIC endpoint to a UDP port of node.
func NewEndpoint(node *netem.Node, port uint16) *Endpoint {
	e := &Endpoint{
		node: node,
		port: port,
		// The stream name must include the port: two endpoints on one
		// node (campaigns build a fresh endpoint per transfer) would
		// otherwise draw identical connection-ID sequences and collide
		// at a server whose previous connection is still live.
		rng:   node.Scheduler().RNG().Stream(fmt.Sprintf("%s/quic/%d", node.Name(), port)),
		conns: make(map[uint64]*Connection),
		pool:  wirePoolOf(node.Network()),
	}
	node.Bind(netem.ProtoUDP, port, e.receive)
	return e
}

// Close unbinds the endpoint.
func (e *Endpoint) Close() {
	e.node.Unbind(netem.ProtoUDP, e.port)
}

// Listen accepts incoming connections, invoking onConn for each new one
// (before any of its streams deliver data).
func (e *Endpoint) Listen(cfg Config, onConn func(*Connection)) {
	e.listening = true
	e.serverCfg = cfg
	e.onConn = onConn
}

// Dial opens a client connection to the remote address and starts the
// handshake. Use the connection's OnEstablished callback to begin work.
func (e *Endpoint) Dial(remote netem.Addr, remotePort uint16, cfg Config) *Connection {
	var id uint64
	for {
		id = e.rng.Uint64()
		if _, taken := e.conns[id]; !taken && id != 0 {
			break
		}
	}
	c := newConnection(e, cfg, true, id, remote, remotePort)
	e.conns[id] = c
	c.startHandshake()
	return c
}

func (e *Endpoint) removeConn(id uint64) { delete(e.conns, id) }

// receive handles one arriving datagram. The parsed packet lives in the
// endpoint's scratch and its Data slices alias the wire buffer, which the
// datapath recycles when this handler returns: whatever the connection
// keeps, it copies.
func (e *Endpoint) receive(pkt *netem.Packet) {
	w, ok := pkt.Payload.(*wireBuf)
	if !ok {
		return
	}
	p, err := e.rx.parse(w.b)
	if err != nil {
		return // corrupted or foreign datagram
	}
	c := e.conns[p.Header.ConnID]
	if c == nil {
		if !e.listening || !p.Header.Handshake {
			return
		}
		c = newConnection(e, e.serverCfg, false, p.Header.ConnID, pkt.Src, pkt.SrcPort)
		e.conns[p.Header.ConnID] = c
		if e.onConn != nil {
			e.onConn(c)
		}
	}
	c.handlePacket(p)
}

// sendDatagram wraps a serialized QUIC packet in a UDP packet and sends
// it from the endpoint's node, handing the wire buffer to the datapath.
func (e *Endpoint) sendDatagram(remote netem.Addr, remotePort uint16, payload *wireBuf) {
	pkt := e.node.NewPacket()
	pkt.Dst = remote
	pkt.DstPort = remotePort
	pkt.SrcPort = e.port
	pkt.Proto = netem.ProtoUDP
	pkt.Size = len(payload.b) + udpOverhead
	pkt.Payload = payload
	e.node.Send(pkt)
}
