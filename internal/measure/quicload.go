package measure

import (
	"encoding/binary"
	"fmt"
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
		if srv.OnConn != nil {
			srv.OnConn(c)
		}
		c.OnStream = func(st *quic.Stream) { srv.handleStream(c, st) }
	})
	return srv
}

// h3Stream is the server's parse state for one request stream: the 9
// request bytes, copied as they arrive — data is only valid during the
// callback — and nothing more. What follows them, or a stream that never
// sends a known request (a message upload is all zero bytes), is
// discarded.
type h3Stream struct {
	srv    *H3Server
	c      *quic.Connection
	st     *quic.Stream
	header [9]byte
	n      int // request bytes collected
}

func (srv *H3Server) handleStream(c *quic.Connection, st *quic.Stream) {
	h := &h3Stream{srv: srv, c: c, st: st}
	st.OnData = h.onData
}

func (h *h3Stream) onData(data []byte, fin bool) {
	if h.n < len(h.header) {
		h.n += copy(h.header[h.n:], data)
		if h.n < len(h.header) {
			return
		}
		switch h.header[0] {
		case reqDownload:
			h.st.WriteZeroes(int(binary.BigEndian.Uint64(h.header[1:])))
			h.st.Close()
			return
		case reqMessages:
			h.srv.runMessageSender(h.c, binary.BigEndian.Uint64(h.header[1:]))
			return
		}
	}
	if fin && h.header[0] == reqUpload {
		h.st.Write([]byte{0xAA}) // receipt
		h.st.Close()
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
	SendMessages(c, srv.rng, rate, time.Duration(durS)*time.Second, minSz, maxSz)
}

// MessageParams encodes the message-workload parameters for the request.
// Rate, whole seconds of dur and both sizes in units of 100 bytes travel
// in 16 bits each; it panics, naming the argument, on a workload
// SendMessages cannot run or one that does not fit.
//
// Known defect: the duration travels in whole seconds, so a download
// session's server sends for dur truncated to the second while an upload
// sends for all of it. With a jittered 59.981 s session at 25 messages a
// second, a download carries 1 475 messages and an upload 1 499. Fixing
// it changes what every message download sends.
func MessageParams(rate int, dur time.Duration, minSize, maxSize int) uint64 {
	checkMessages(rate, dur, minSize, maxSize)
	switch {
	case rate > 0xffff:
		panic(fmt.Sprintf("measure: message rate %d does not fit the request (at most 65535)", rate))
	case dur/time.Second > 0xffff:
		panic(fmt.Sprintf("measure: message dur %v does not fit the request (under 65536 s)", dur))
	case maxSize/100 > 0xffff:
		panic(fmt.Sprintf("measure: message maxSize %d does not fit the request (under 6553600 bytes)", maxSize))
	}
	return uint64(rate)<<48 | uint64(dur/time.Second)<<32 |
		uint64(minSize/100)<<16 | uint64(maxSize/100)
}

// checkMessages panics, naming the argument, unless rate, dur and the
// size range describe a workload SendMessages can run.
func checkMessages(rate int, dur time.Duration, minSize, maxSize int) {
	switch {
	case rate <= 0 || rate > int(time.Second):
		panic(fmt.Sprintf("measure: message rate %d, must be 1 to 1e9 a second", rate))
	case dur < 0:
		panic(fmt.Sprintf("measure: message dur %v, must not be negative", dur))
	case minSize < 0:
		panic(fmt.Sprintf("measure: message minSize %d, must not be negative", minSize))
	case minSize > maxSize:
		panic(fmt.Sprintf("measure: message minSize %d above maxSize %d", minSize, maxSize))
	}
}

// messageInterval is the gap between two messages at rate a second.
func messageInterval(rate int) time.Duration {
	return time.Duration(int64(time.Second) / int64(rate))
}

// SendMessages opens a fresh stream every 1/rate seconds carrying a
// uniformly sized message in [minSize, maxSize], for dur. This mirrors
// the paper's real-time-video-like workload: 25 messages/s of 5–25 kB
// for two minutes (~3 Mbit/s).
func SendMessages(c *quic.Connection, rng *sim.RNG, rate int, dur time.Duration, minSize, maxSize int) {
	sched := c.Sched()
	interval := messageInterval(rate)
	total := int(dur / interval)
	count := 0
	var tick func()
	tick = func() {
		if c.Closed() || count >= total {
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

// Session is one client connection to the shared server and the peer
// connection the server accepted for it, instrumented for the direction
// the workload's data flows in.
type Session struct {
	// RTTs holds the per-ACK samples observed at the data sender (the
	// server for downloads — the paper captured there — the client for
	// uploads).
	RTTs *trace.RTTRecorder
	// ReceiverCapture holds the receive-side packet events for loss
	// analysis (client side for downloads, server side for uploads).
	ReceiverCapture *trace.Capture
	// Client is the client connection (stats live here).
	Client *quic.Connection
	// Server is the peer connection.
	Server *quic.Connection
}

// streamPayload is the stream data one full packet carries: the frame
// budget less a STREAM frame's type byte, one-byte stream ID and four-byte
// offset, and the four bytes the sender keeps for the length.
const streamPayload = quic.MaxPayloadSize - 1 - 1 - 4 - 4

// logSizes returns how many packets the receiver capture and how many RTT
// samples the sender's recorder of a session will hold, when it carries
// msgs messages of msgBytes each on average (a bulk transfer is one
// message) and the receiver acknowledges every ackThreshold-th packet.
// Each message fills msgBytes/streamPayload packets, ends in a partial one
// and may send its FIN in one of its own, and the last ACK of a message
// may cover a single packet. A 1/32 share and 64 more cover the
// handshake, packets that carry an ACK or a flow-control update beside
// their data, retransmissions split around one, and probes.
func logSizes(msgs, msgBytes, ackThreshold int) (packets, samples int) {
	if msgs < 0 || msgBytes < 0 {
		msgs, msgBytes = 0, 0
	}
	perMsg := msgBytes/streamPayload + 2
	packets = msgs * perMsg
	samples = msgs * ((perMsg + ackThreshold - 1) / ackThreshold)
	return packets + packets/32 + 64, samples + samples/32 + 64
}

// dial opens the session: it connects from node to the server at
// addr:port, attaches the RTT recorder to the sending side and the
// capture to the receiving side, and runs begin once the handshake
// completes. Both logs are made once, here, sized by logSizes for msgs
// messages of msgBytes; the testbed's peers share one configuration, so
// the client's ACK threshold is the receiver's either way. srv must be
// the H3Server listening there: its OnConn hook is how the accepted
// connection is reached, and this is the one place that sets it and —
// when that connection arrives — clears it. The returned function tears
// the session down.
func (s *Session) dial(node *netem.Node, srv *H3Server, addr netem.Addr, port uint16, cfg quic.Config, download bool, msgs, msgBytes int, begin func(*quic.Connection)) (finish func()) {
	srv.OnConn = func(sc *quic.Connection) {
		srv.OnConn = nil
		s.Server = sc
		if download {
			s.RTTs.Attach(sc)
		} else {
			s.ReceiverCapture.AttachReceiver(sc)
		}
	}
	ep := quic.NewEndpoint(node, ephemeralUDP(node))
	conn := ep.Dial(addr, port, cfg)
	s.Client = conn
	packets, samples := logSizes(msgs, msgBytes, conn.Config().AckElicitingThreshold)
	s.ReceiverCapture = &trace.Capture{Received: make([]trace.PacketRecord, 0, packets)}
	s.RTTs = &trace.RTTRecorder{Samples: make([]trace.RTTSample, 0, samples)}
	if download {
		s.ReceiverCapture.AttachReceiver(conn)
	} else {
		s.RTTs.Attach(conn)
	}
	conn.OnEstablished = func() { begin(conn) }
	return func() {
		conn.Close(0, "done")
		ep.Close()
	}
}

// sendRequest opens a stream and writes the 9-byte request on it.
func sendRequest(conn *quic.Connection, kind byte, arg uint64) *quic.Stream {
	st := conn.OpenStream()
	req := make([]byte, 9)
	req[0] = kind
	binary.BigEndian.PutUint64(req[1:], arg)
	st.Write(req)
	return st
}

// TransferResult summarizes one bulk transfer.
type TransferResult struct {
	Session
	Start, End  sim.Time
	Bytes       uint64
	GoodputMbps float64
	// Completed reports whether the FIN was delivered.
	Completed bool
}

// H3Transfer runs one bulk transfer of size bytes, down from or up to the
// server reachable at addr:port, and reports it through done. A download
// completes on the response's FIN, an upload on the server's 1-byte
// receipt.
func H3Transfer(node *netem.Node, srv *H3Server, addr netem.Addr, port uint16, download bool, size int, cfg quic.Config, done func(TransferResult)) {
	var res TransferResult
	var finish func()
	finish = res.dial(node, srv, addr, port, cfg, download, 1, size, func(conn *quic.Connection) {
		res.Start = node.Scheduler().Now()
		var st *quic.Stream
		if download {
			st = sendRequest(conn, reqDownload, uint64(size))
		} else {
			st = sendRequest(conn, reqUpload, uint64(size))
			st.WriteZeroes(size)
			st.Close()
		}
		st.OnData = func(data []byte, fin bool) {
			if download {
				res.Bytes += uint64(len(data))
				if !fin {
					return
				}
			} else {
				if len(data) == 0 {
					return
				}
				res.Bytes = uint64(size)
			}
			res.End = node.Scheduler().Now()
			res.Completed = true
			if d := res.End.Sub(res.Start).Seconds(); d > 0 {
				res.GoodputMbps = float64(res.Bytes) * 8 / d / 1e6
			}
			finish()
			done(res)
		}
	})
}

// MessageSession runs the message workload for dur — rate messages a
// second of minSize to maxSize bytes, sent by the server on request for a
// download, by the client for an upload — and reports the session ten
// seconds after the last message is due. It panics, naming the argument,
// on a workload SendMessages cannot run or, for a download, one
// MessageParams cannot encode.
func MessageSession(node *netem.Node, srv *H3Server, addr netem.Addr, port uint16, download bool, rate int, dur time.Duration, minSize, maxSize int, cfg quic.Config, done func(Session)) {
	var params uint64
	if download {
		params = MessageParams(rate, dur, minSize, maxSize) // checks them too
	} else {
		checkMessages(rate, dur, minSize, maxSize)
	}
	res := &Session{}
	msgs := int(dur / messageInterval(rate))
	finish := res.dial(node, srv, addr, port, cfg, download, msgs, (minSize+maxSize)/2, func(conn *quic.Connection) {
		if download {
			sendRequest(conn, reqMessages, params).Close()
			return
		}
		rng := node.Scheduler().RNG().Stream(node.Name() + "/msgs")
		SendMessages(conn, rng, rate, dur, minSize, maxSize)
	})
	node.Scheduler().After(dur+10*time.Second, func() {
		finish()
		done(*res)
	})
}

// ephemeralUDP hands out per-node client UDP ports. The counter lives on
// the node itself so independent simulations never share an allocator.
func ephemeralUDP(node *netem.Node) uint16 {
	return node.EphemeralPort(netem.ProtoUDP, 52000)
}
