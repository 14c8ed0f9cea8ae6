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
	// rxTails is rx's ACK memo.
	rxTails ackTail
	// pool is the network's buffer freelist (see wirePool).
	pool *wirePool
}

// wireBuf is one QUIC packet on its way through the network, carried as
// the netem packet's payload. It holds the header and frame bytes, and
// refers to the payload of each STREAM and CRYPTO frame instead of copying
// it (refs, in frame order; encode and parser.parseWire). A ref points into
// memory nothing writes once it exists — a Write run (the stream's private
// copy), the zero page, or the fresh buffer cut assembles for a frame that
// straddles two runs — so the receiver may keep the data by reference too.
// The buffer belongs to the sending endpoint from get until sendDatagram,
// to the datapath while in flight — which returns it through
// ReleasePayload at the packet's terminal point (delivery, once the
// receiving endpoint's handler returned, or a drop) — and to the pool
// after that. Receivers therefore read b only inside their handler.
type wireBuf struct {
	owner  *wirePool // the pool it was drawn from, or the one HandOver moved it to; never nil
	b      []byte    // header and frame bytes; aliases bArr unless it outgrew it
	refs   [][]byte  // STREAM and CRYPTO payloads; aliases refArr unless it outgrew it
	refArr [wireRefs][]byte
	pooled bool
	bArr   [wireBytes]byte
}

// The inline capacity of a wire buffer, which makes it one 288-byte
// object. Over the H3 and message campaigns a packet's header and frame
// bytes measured at most 97 (an ACK of 32 ranges with a STREAM frame
// head); only the padded client Initial, ~880 bytes once per connection,
// outgrows them. Packets carried at most 3 payloads.
const (
	wireBytes = 135
	wireRefs  = 4
)

// size is the datagram's length on the wire: the bytes plus the payloads
// they refer to, what Serialize would return for the same packet.
func (w *wireBuf) size() int {
	n := len(w.b)
	for _, r := range w.refs {
		n += len(r)
	}
	return n
}

// wirePool is the QUIC freelists of one netem.Network: every endpoint on
// it encodes its packets into the pool's buffers, and every connection on
// it keeps its in-flight packets' sent records and STREAM frame structs in
// the pool's other two lists. Campaigns dial a fresh client endpoint per
// transfer, and a sweep worker's next network inherits all three lists
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

// Pools implements netem.TransportPool: "quic wire" counts wire buffers,
// one per packet sent.
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
	w.b, w.refs = w.bArr[:0], w.refArr[:0]
	return w
}

// put lists w, drawn from p, for the next get. An already-pooled buffer
// is inert, and a network in no-recycle mode reuses none.
func (p *wirePool) put(w *wireBuf) {
	if w.pooled || !p.nw.Recycling() {
		return
	}
	if p.scribble {
		scribble(w.bArr[:])
	}
	clear(w.refArr[:]) // the payloads are the sender's, not the pool's to keep alive
	w.b, w.refs, w.pooled = nil, nil, true
	p.Put(w)
}

// ReleasePayload implements netem.PayloadReleaser: the buffer returns to
// its pool.
func (w *wireBuf) ReleasePayload() { w.owner.put(w) }

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
	e.rx.tails = &e.rxTails
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
// endpoint's scratch, which the next datagram overwrites, and the wire
// buffer is recycled when this handler returns; the frames' Data slices
// are the buffer's refs, which the connection may keep and never writes.
func (e *Endpoint) receive(pkt *netem.Packet) {
	w, ok := pkt.Payload.(*wireBuf)
	if !ok {
		return
	}
	p, err := e.rx.parseWire(w)
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

// sendDatagram wraps an encoded QUIC packet of size bytes in a UDP packet
// and sends it from the endpoint's node, handing the wire buffer to the
// datapath.
func (e *Endpoint) sendDatagram(remote netem.Addr, remotePort uint16, payload *wireBuf, size int) {
	pkt := e.node.NewPacket()
	pkt.Dst = remote
	pkt.DstPort = remotePort
	pkt.SrcPort = e.port
	pkt.Proto = netem.ProtoUDP
	pkt.Size = size + udpOverhead
	pkt.Payload = payload
	e.node.Send(pkt)
}
