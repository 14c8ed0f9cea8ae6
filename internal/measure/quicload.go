package measure

import (
	"encoding/binary"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/trace"
)

// The H3-like request protocol: the client opens a bidirectional stream
// and sends a 9-byte request (1 direction byte + 8 size bytes). For
// downloads the server responds with size bytes and FIN; for uploads the
// client follows the request with size bytes and FIN, and the server
// answers a 1-byte receipt.
const (
	reqDownload = 0x01
	reqUpload   = 0x02
	reqMessages = 0x03
)

// H3Server serves bulk transfers and the message workload over QUIC.
type H3Server struct {
	Endpoint *quic.Endpoint
	// Conns exposes accepted connections for capture attachment.
	Conns []*quic.Connection
	// OnConn, when set, observes each accepted connection before data.
	OnConn func(*quic.Connection)
	rng    *sim.RNG
}

// NewH3Server listens on node:port with the given transport config.
func NewH3Server(node *netem.Node, port uint16, cfg quic.Config) *H3Server {
	srv := &H3Server{
		Endpoint: quic.NewEndpoint(node, port),
		rng:      node.Scheduler().RNG().Stream(node.Name() + "/h3srv"),
	}
	srv.Endpoint.Listen(cfg, func(c *quic.Connection) {
		srv.Conns = append(srv.Conns, c)
		if srv.OnConn != nil {
			srv.OnConn(c)
		}
		c.OnStream = func(st *quic.Stream) { srv.handleStream(c, st) }
	})
	return srv
}

func (srv *H3Server) handleStream(c *quic.Connection, st *quic.Stream) {
	// header collects the 9 request bytes — copied, data is only valid
	// during the callback — and nothing more: what follows them, or a
	// stream that never sends a known request (a message upload is all
	// zero bytes), is counted and discarded.
	var header []byte
	var parsed bool
	var dir byte
	var got uint64
	st.OnData = func(data []byte, fin bool) {
		if !parsed {
			need := 9 - len(header)
			if need > len(data) {
				header = append(header, data...)
				return
			}
			header = append(header, data[:need]...)
			data = data[need:]
			parsed = true
			dir = header[0]
			switch dir {
			case reqDownload:
				st.WriteZeroes(int(binary.BigEndian.Uint64(header[1:9])))
				st.Close()
				return
			case reqMessages:
				srv.runMessageSender(c, binary.BigEndian.Uint64(header[1:9]))
				return
			}
		}
		// Upload accounting.
		got += uint64(len(data))
		if fin && dir == reqUpload {
			st.Write([]byte{0xAA}) // receipt
			st.Close()
		}
	}
}

// runMessageSender produces the paper's messaging workload server-side:
// params packs rate (msgs/s, high 16 bits), duration seconds (next 16),
// min and max size in bytes (low 32, 16 each, in units of 100 bytes).
func (srv *H3Server) runMessageSender(c *quic.Connection, params uint64) {
	rate := int(params >> 48)
	durS := int(params >> 32 & 0xffff)
	minSz := int(params>>16&0xffff) * 100
	maxSz := int(params&0xffff) * 100
	SendMessages(c, srv.rng, rate, time.Duration(durS)*time.Second, minSz, maxSz, nil)
}

// MessageParams encodes the message-workload parameters for the request.
func MessageParams(rate int, dur time.Duration, minSize, maxSize int) uint64 {
	return uint64(rate)<<48 | uint64(dur/time.Second)<<32 |
		uint64(minSize/100)<<16 | uint64(maxSize/100)
}

// SendMessages opens a fresh stream every 1/rate seconds carrying a
// uniformly sized message in [minSize, maxSize], for dur. This mirrors
// the paper's real-time-video-like workload: 25 messages/s of 5–25 kB
// for two minutes (~3 Mbit/s). done, if non-nil, runs after the last
// message is queued.
func SendMessages(c *quic.Connection, rng *sim.RNG, rate int, dur time.Duration, minSize, maxSize int, done func()) {
	sched := c.Sched()
	interval := time.Duration(int64(time.Second) / int64(rate))
	total := int(dur / interval)
	count := 0
	var tick func()
	tick = func() {
		if c.Closed() || count >= total {
			if done != nil {
				done()
			}
			return
		}
		count++
		size := minSize + rng.IntN(maxSize-minSize+1)
		st := c.OpenStream()
		st.WriteZeroes(size)
		st.Close()
		sched.After(interval, tick)
	}
	tick()
}

// TransferResult summarizes one bulk transfer.
type TransferResult struct {
	Start, End  sim.Time
	Bytes       uint64
	GoodputMbps float64
	// RTTs holds the per-ACK samples observed at the data sender.
	RTTs *trace.RTTRecorder
	// ReceiverCapture holds the receive-side packet events for loss
	// analysis (client side for downloads, server side for uploads).
	ReceiverCapture *trace.Capture
	// Client is the client connection (stats live here).
	Client *quic.Connection
	// Server is the peer connection.
	Server *quic.Connection
	// Completed reports whether the FIN was delivered.
	Completed bool
}

// H3Download runs one bulk download of size bytes from the server
// reachable at addr:port, attaching captures and the RTT recorder to the
// appropriate sides. The server's H3Server must be passed so the transfer
// can hook the accepted connection (the paper captured on the server for
// the download RTT series).
func H3Download(node *netem.Node, srv *H3Server, addr netem.Addr, port uint16, size int, cfg quic.Config, done func(TransferResult)) {
	res := TransferResult{
		RTTs:            &trace.RTTRecorder{},
		ReceiverCapture: &trace.Capture{},
	}
	srv.OnConn = func(sc *quic.Connection) {
		res.Server = sc
		res.RTTs.Attach(sc) // download RTTs are measured at the sending server
	}
	ep := quic.NewEndpoint(node, ephemeralUDP(node))
	conn := ep.Dial(addr, port, cfg)
	res.Client = conn
	res.ReceiverCapture.AttachReceiver(conn)
	conn.OnEstablished = func() {
		res.Start = node.Scheduler().Now()
		st := conn.OpenStream()
		req := make([]byte, 9)
		req[0] = reqDownload
		binary.BigEndian.PutUint64(req[1:], uint64(size))
		st.Write(req)
		st.OnData = func(data []byte, fin bool) {
			res.Bytes += uint64(len(data))
			if fin {
				res.End = node.Scheduler().Now()
				res.Completed = true
				if d := res.End.Sub(res.Start).Seconds(); d > 0 {
					res.GoodputMbps = float64(res.Bytes) * 8 / d / 1e6
				}
				srv.OnConn = nil
				conn.Close(0, "done")
				ep.Close()
				done(res)
			}
		}
	}
}

// H3Upload runs one bulk upload of size bytes to the server.
func H3Upload(node *netem.Node, srv *H3Server, addr netem.Addr, port uint16, size int, cfg quic.Config, done func(TransferResult)) {
	res := TransferResult{
		RTTs:            &trace.RTTRecorder{},
		ReceiverCapture: &trace.Capture{},
	}
	srv.OnConn = func(sc *quic.Connection) {
		res.Server = sc
		res.ReceiverCapture.AttachReceiver(sc) // server receives the upload
	}
	ep := quic.NewEndpoint(node, ephemeralUDP(node))
	conn := ep.Dial(addr, port, cfg)
	res.Client = conn
	res.RTTs.Attach(conn) // upload RTTs measured at the sending client
	conn.OnEstablished = func() {
		res.Start = node.Scheduler().Now()
		st := conn.OpenStream()
		req := make([]byte, 9)
		req[0] = reqUpload
		binary.BigEndian.PutUint64(req[1:], uint64(size))
		st.Write(req)
		st.WriteZeroes(size)
		st.Close()
		st.OnData = func(data []byte, fin bool) {
			// The 1-byte receipt marks server-side completion.
			if len(data) > 0 {
				res.End = node.Scheduler().Now()
				res.Completed = true
				res.Bytes = uint64(size)
				if d := res.End.Sub(res.Start).Seconds(); d > 0 {
					res.GoodputMbps = float64(res.Bytes) * 8 / d / 1e6
				}
				srv.OnConn = nil
				conn.Close(0, "done")
				ep.Close()
				done(res)
			}
		}
	}
}

// MessageSessionResult summarizes one messaging session.
type MessageSessionResult struct {
	// RTTs are the sender-side per-ACK samples.
	RTTs *trace.RTTRecorder
	// ReceiverCapture records receive-side packets for loss analysis.
	ReceiverCapture *trace.Capture
	Client          *quic.Connection
	Server          *quic.Connection
}

// MessagesDownload runs the message workload server→client.
func MessagesDownload(node *netem.Node, srv *H3Server, addr netem.Addr, port uint16, rate int, dur time.Duration, minSize, maxSize int, cfg quic.Config, done func(MessageSessionResult)) {
	res := MessageSessionResult{RTTs: &trace.RTTRecorder{}, ReceiverCapture: &trace.Capture{}}
	srv.OnConn = func(sc *quic.Connection) {
		res.Server = sc
		res.RTTs.Attach(sc)
	}
	ep := quic.NewEndpoint(node, ephemeralUDP(node))
	conn := ep.Dial(addr, port, cfg)
	res.Client = conn
	res.ReceiverCapture.AttachReceiver(conn)
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		req := make([]byte, 9)
		req[0] = reqMessages
		binary.BigEndian.PutUint64(req[1:], MessageParams(rate, dur, minSize, maxSize))
		st.Write(req)
		st.Close()
		srv.OnConn = nil
	}
	node.Scheduler().After(dur+10*time.Second, func() {
		conn.Close(0, "done")
		ep.Close()
		done(res)
	})
}

// MessagesUpload runs the message workload client→server.
func MessagesUpload(node *netem.Node, srv *H3Server, addr netem.Addr, port uint16, rate int, dur time.Duration, minSize, maxSize int, cfg quic.Config, done func(MessageSessionResult)) {
	res := MessageSessionResult{RTTs: &trace.RTTRecorder{}, ReceiverCapture: &trace.Capture{}}
	srv.OnConn = func(sc *quic.Connection) {
		res.Server = sc
		res.ReceiverCapture.AttachReceiver(sc)
		srv.OnConn = nil
	}
	ep := quic.NewEndpoint(node, ephemeralUDP(node))
	conn := ep.Dial(addr, port, cfg)
	res.Client = conn
	res.RTTs.Attach(conn)
	rng := node.Scheduler().RNG().Stream(node.Name() + "/msgs")
	conn.OnEstablished = func() {
		SendMessages(conn, rng, rate, dur, minSize, maxSize, nil)
	}
	node.Scheduler().After(dur+10*time.Second, func() {
		conn.Close(0, "done")
		ep.Close()
		done(res)
	})
}

// ephemeralUDP hands out per-node client UDP ports. The counter lives on
// the node itself so independent simulations never share an allocator.
func ephemeralUDP(node *netem.Node) uint16 {
	return node.EphemeralPort(netem.ProtoUDP, 52000)
}
