package tcpsim

import (
	"starlinkperf/internal/netem"
)

// Listener accepts TCP connections on a node port.
type Listener struct {
	node   *netem.Node
	port   uint16
	cfg    Config
	flows  map[flowKey]*Conn
	accept func(*Conn)
}

// Listen binds a TCP listener to node:port; accept runs for every new
// connection before any data is delivered.
func Listen(node *netem.Node, port uint16, cfg Config, accept func(*Conn)) *Listener {
	l := &Listener{
		node:   node,
		port:   port,
		cfg:    cfg,
		flows:  make(map[flowKey]*Conn),
		accept: accept,
	}
	node.Bind(netem.ProtoTCP, port, l.receive)
	return l
}

func (l *Listener) receive(pkt *netem.Packet) {
	key := keyOf(pkt)
	c := l.flows[key]
	if c == nil {
		seg, ok := pkt.Payload.(*Segment)
		if !ok || seg.Flags&FlagSYN == 0 || seg.Flags&FlagACK != 0 {
			return
		}
		c = NewConn(ConnParams{
			Sched:      l.node.Scheduler(),
			Transmit:   l.node.Send,
			Node:       l.node,
			LocalAddr:  l.node.Addr(),
			LocalPort:  l.port,
			RemoteAddr: pkt.Src,
			RemotePort: pkt.SrcPort,
			IsClient:   false,
			Config:     l.cfg,
		})
		l.flows[key] = c
		c.closeHook = func() { delete(l.flows, key) }
		if l.accept != nil {
			l.accept(c)
		}
	}
	c.HandleSegment(pkt)
}

// Dial opens a client connection from node to remote:port and starts the
// handshake. Each call binds a fresh ephemeral source port.
func Dial(node *netem.Node, remote netem.Addr, remotePort uint16, cfg Config) *Conn {
	sport := node.EphemeralPort(netem.ProtoTCP, 32768)

	c := NewConn(ConnParams{
		Sched:      node.Scheduler(),
		Transmit:   node.Send,
		Node:       node,
		LocalAddr:  node.Addr(),
		LocalPort:  sport,
		RemoteAddr: remote,
		RemotePort: remotePort,
		IsClient:   true,
		Config:     cfg,
	})
	node.Bind(netem.ProtoTCP, sport, c.HandleSegment)
	c.closeHook = func() { node.Unbind(netem.ProtoTCP, sport) }
	c.Start()
	return c
}
