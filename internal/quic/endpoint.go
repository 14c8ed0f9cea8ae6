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
	// wireFree recycles the buffers this endpoint's packets are serialized
	// into (see wireBuf).
	wireFree sim.Freelist[wireBuf]
	// scribble makes every buffer and frame struct that re-enters a
	// freelist of this endpoint or its connections unusable (tests set it
	// to prove nothing reads recycled memory).
	scribble bool
}

// wireBuf is one serialized packet on its way through the network, carried
// as the netem packet's payload. It belongs to the sending endpoint from
// getWire until sendDatagram, to the datapath while in flight — which
// returns it through ReleasePayload at the packet's terminal point
// (delivery, once the receiving endpoint's handler returned, or a drop) —
// and to the endpoint's freelist after that. Receivers therefore read b
// only inside their handler.
type wireBuf struct {
	b      []byte // the datagram; aliases arr unless it outgrew it
	arr    [MaxDatagramSize]byte
	owner  *Endpoint // nil once shared: never recycled
	pooled bool
}

// WirePoolStats returns a copy of the wire-buffer pool counters; Shared
// counts buffers a second packet started referencing (netem.PayloadSharer).
func (e *Endpoint) WirePoolStats() sim.PoolStats { return e.wireFree.Stats() }

// getWire returns an empty wire buffer owned by the endpoint.
func (e *Endpoint) getWire() *wireBuf {
	w := e.wireFree.Get()
	if w != nil {
		w.pooled = false
	} else {
		w = &wireBuf{owner: e}
	}
	w.b = w.arr[:0]
	return w
}

// ReleasePayload implements netem.PayloadReleaser: the buffer returns to
// the sending endpoint's freelist. Shared or already-pooled buffers are
// inert.
func (w *wireBuf) ReleasePayload() {
	e := w.owner
	if e == nil || w.pooled {
		return
	}
	if e.scribble {
		scribble(w.arr[:])
	}
	w.b, w.pooled = nil, true
	e.wireFree.Put(w)
}

// SharePayload implements netem.PayloadSharer: a buffer referenced by two
// packets is left to the garbage collector.
func (w *wireBuf) SharePayload() {
	if e := w.owner; e != nil && !w.pooled {
		e.wireFree.Share()
		w.owner = nil
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
	}
	node.Bind(netem.ProtoUDP, port, e.receive)
	return e
}

// Node returns the underlying emulated node.
func (e *Endpoint) Node() *netem.Node { return e.node }

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
	c.handlePacket(p, pkt.Src, pkt.SrcPort)
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
