package quic

import (
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// quicObs caches the metric handles a connection writes into, all
// pointing at the shared per-testbed registry/tracer.
type quicObs struct {
	tr       *obs.Tracer
	subj     obs.Subj
	lost     *obs.Counter
	ptos     *obs.Counter
	retxFrms *obs.Counter
	cwnd     *obs.Histogram
}

func newQUICObs(s *obs.Sink) *quicObs {
	if s == nil {
		return nil
	}
	reg, tr := s.Registry(), s.Tracer()
	return &quicObs{
		tr:       tr,
		subj:     tr.Subject("quic"),
		lost:     reg.Counter("quic.packets_lost"),
		ptos:     reg.Counter("quic.pto"),
		retxFrms: reg.Counter("quic.frames_retx"),
		cwnd:     reg.Histogram("quic.cwnd_bytes", obs.SizeBounds()),
	}
}

// Config carries the transport parameters of one endpoint of a
// connection. The defaults mirror the paper's quiche configuration.
type Config struct {
	// InitialMaxData is the connection receive window advertised at the
	// handshake (paper: 10 MB).
	InitialMaxData uint64
	// InitialMaxStreamData is the per-stream receive window (paper: 10 MB).
	InitialMaxStreamData uint64
	// MaxReceiveWindow caps flow-control autotuning. 0 disables
	// autotuning (the window still slides, it just never grows).
	MaxReceiveWindow uint64
	// MaxAckDelay bounds how long an ACK may be withheld.
	MaxAckDelay time.Duration
	// AckElicitingThreshold is the packet count that forces an
	// immediate ACK (2, per RFC 9000 §13.2.2).
	AckElicitingThreshold int
	// NewCC constructs the congestion controller; nil means CUBIC.
	NewCC func() CongestionController
	// EnablePacing spaces ack-eliciting departures at the pacing rate
	// (1.25x cwnd/SRTT, or the controller's own rate when it implements
	// cc.PacingRater) with a max-burst token bucket. quiche at the
	// paper's commit did not pace; the default is off.
	EnablePacing bool
	// PacingBurst caps the pacer's back-to-back burst allowance in
	// packets; 0 means cc.DefaultBurstPackets.
	PacingBurst int
	// RTTMinWindow, when positive, makes the connection's min-RTT filter
	// windowed over that much sim time instead of all-time, so a
	// handover that raises the path RTT stops pinning stale state. 0
	// keeps the seed's all-time minimum.
	RTTMinWindow time.Duration
	// EnableZeroRTT resumes connections against servers recorded in
	// Sessions without waiting a handshake round trip: Dial returns a
	// connection that is immediately usable, with the session-ticket
	// exchange completing in the background. Requires Sessions.
	EnableZeroRTT bool
	// Sessions is the session-ticket cache shared across endpoints (the
	// testbed owns one per profile): clients record a ticket per
	// (address, port) on every completed handshake and consult it on
	// Dial when EnableZeroRTT is set.
	Sessions *SessionCache
	// AllowMigration lets an established connection follow the peer's
	// address/port change (RFC 9000 §9) — the NAT rebinding a handover
	// or outage induces — instead of stranding replies at the stale
	// mapping until the connection times out.
	AllowMigration bool
	// Obs, when non-nil, reports loss/PTO counters, trace events, and
	// cwnd samples for every connection built with this config.
	Obs *obs.Sink
}

// DefaultConfig returns the paper's quiche-equivalent configuration.
func DefaultConfig() Config {
	return Config{
		InitialMaxData:        10 << 20,
		InitialMaxStreamData:  10 << 20,
		MaxReceiveWindow:      40 << 20,
		MaxAckDelay:           25 * time.Millisecond,
		AckElicitingThreshold: 2,
	}
}

// Stats aggregates connection counters.
type Stats struct {
	PacketsSent         uint64
	AckElicitingSent    uint64
	PacketsReceived     uint64
	DuplicatesRecv      uint64
	PacketsAcked        uint64 // our packets acked by the peer
	PacketsLost         uint64 // sender-declared losses
	ProbesSent          uint64
	PathMigrations      uint64 // peer address/port changes followed
	ZeroRTTResumed      bool   // connection skipped the handshake RTT
	BytesSent           uint64
	BytesReceived       uint64
	FramesRetransmitted uint64
	AcksSent            uint64
}

// connState is the connection lifecycle state.
type connState uint8

const (
	stateHandshaking connState = iota
	stateEstablished
	stateClosed
)

// Sizes of the opaque handshake flights (bytes): a ClientHello-sized
// first flight, a certificate-chain-sized server flight and a Finished-
// sized client confirmation.
const (
	clientHelloSize    = 320
	serverFlightSize   = 3000
	clientFinishedSize = 52
	initialPadTarget   = 1200
)

// Connection is one endpoint of a QUIC connection.
type Connection struct {
	ep       *Endpoint
	sched    *sim.Scheduler
	cfg      Config
	isClient bool
	connID   uint64

	remote     netem.Addr
	remotePort uint16

	state connState
	// hsConfirmed marks the crypto exchange complete. It tracks the
	// state variable exactly on the normal path (set in establish); a
	// 0-RTT resumption is the one case where the connection is usable
	// (state established) while the ticket exchange is still in flight.
	hsConfirmed bool
	// resumed marks a 0-RTT resumption (client side).
	resumed bool

	// Send side.
	nextPN            uint64
	ld                lossDetector
	cc                CongestionController
	pacer             Pacer
	rtt               RTTEstimator
	ptoCount          int
	timer             sim.TimerHandle
	lastElicitingSent sim.Time
	retxQueue         frameQueue
	pacingTimer       sim.TimerHandle

	// Crypto (opaque handshake bytes, offset-tracked like a stream: the
	// sender counts what is left to packetize, the receiver keeps the
	// offset ranges that arrived ahead of a gap).
	cryptoOut     int
	cryptoBase    uint64
	cryptoRecv    []offRange
	cryptoRecvOff uint64

	// Receive side / ACK generation.
	recvSet        rangeSet
	ackPending     bool
	elicitingSince int
	ackTimer       sim.TimerHandle
	largestRecvAt  sim.Time

	// Connection flow control.
	maxDataRemote  uint64 // peer's advertised limit on our sending
	dataSent       uint64
	maxDataLocal   uint64 // what we advertised
	dataRecv       uint64 // highest offsets received, summed
	dataConsumed   uint64
	connWindow     uint64
	needMaxData    bool
	blockedAtLimit uint64

	// Streams.
	streams      map[uint64]*Stream
	active       []uint64 // round-robin send order
	activeSet    map[uint64]bool
	nextStreamID uint64

	// Application callbacks.
	OnEstablished func()
	OnStream      func(*Stream)
	OnClosed      func()
	// OnRTTSample observes every RTT sample the ACK processing takes —
	// the paper's Figure 3 series.
	OnRTTSample func(at sim.Time, rtt time.Duration)
	// TraceReceived observes every received packet for the capture
	// tooling.
	TraceReceived func(at sim.Time, pn uint64, size int)

	obs *quicObs

	Stats Stats

	inSend bool

	// Per-packet storage, reused so that the steady-state datapath does
	// not allocate. ackFrame and frameBuf are scratch for the packet being
	// built (dead once sendPacket serialized it); the freelists recycle
	// what an in-flight packet owns — its sentPacket record and STREAM
	// frame structs, back when it is acked or declared lost — and the
	// chunks out-of-order stream data waits in.
	ackFrame  AckFrame
	frameBuf  []Frame
	sentFree  sim.Freelist[sentPacket]
	frameFree sim.Freelist[StreamFrame]
	chunkFree [][]byte
}

// offRange is a half-open range of crypto-stream offsets.
type offRange struct{ off, end uint64 }

// frameQueue is the FIFO of frames awaiting (re)transmission. Pops advance
// a head index over one backing array, which is reused from the start
// whenever the queue drains.
type frameQueue struct {
	buf  []Frame
	head int
}

func (q *frameQueue) len() int     { return len(q.buf) - q.head }
func (q *frameQueue) front() Frame { return q.buf[q.head] }

func (q *frameQueue) push(f Frame) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, f)
}

func (q *frameQueue) pop() {
	q.buf[q.head] = nil
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// pushFront puts fs back ahead of everything queued, keeping their order.
func (q *frameQueue) pushFront(fs []Frame) {
	if len(fs) > q.head {
		n := len(q.buf)
		q.buf = append(q.buf, fs[:len(fs)-q.head]...)
		copy(q.buf[len(fs):], q.buf[q.head:n])
		q.head = len(fs)
	}
	q.head -= len(fs)
	copy(q.buf[q.head:], fs)
}

func newConnection(ep *Endpoint, cfg Config, isClient bool, connID uint64, remote netem.Addr, remotePort uint16) *Connection {
	if cfg.InitialMaxData == 0 {
		cfg.InitialMaxData = DefaultConfig().InitialMaxData
	}
	if cfg.InitialMaxStreamData == 0 {
		cfg.InitialMaxStreamData = DefaultConfig().InitialMaxStreamData
	}
	if cfg.MaxAckDelay == 0 {
		cfg.MaxAckDelay = DefaultConfig().MaxAckDelay
	}
	if cfg.AckElicitingThreshold == 0 {
		cfg.AckElicitingThreshold = DefaultConfig().AckElicitingThreshold
	}
	newCC := cfg.NewCC
	if newCC == nil {
		newCC = func() CongestionController { return NewCubic() }
	}
	c := &Connection{
		ep:            ep,
		sched:         ep.node.Scheduler(),
		cfg:           cfg,
		isClient:      isClient,
		connID:        connID,
		remote:        remote,
		remotePort:    remotePort,
		cc:            newCC(),
		pacer:         Pacer{Enabled: cfg.EnablePacing, BurstPackets: cfg.PacingBurst},
		maxDataLocal:  cfg.InitialMaxData,
		connWindow:    cfg.InitialMaxData,
		maxDataRemote: cfg.InitialMaxData, // peers use symmetric configs in the testbed
		streams:       make(map[uint64]*Stream),
		activeSet:     make(map[uint64]bool),
		obs:           newQUICObs(cfg.Obs),
	}
	c.rtt.MinWindow = cfg.RTTMinWindow
	if isClient {
		c.nextStreamID = 0
	} else {
		c.nextStreamID = 1
	}
	return c
}

// ConnID returns the connection identifier.
func (c *Connection) ConnID() uint64 { return c.connID }

// Endpoint returns the endpoint the connection runs on.
func (c *Connection) Endpoint() *Endpoint { return c.ep }

// Sched returns the simulation scheduler driving the connection.
func (c *Connection) Sched() *sim.Scheduler { return c.sched }

// Established reports whether the handshake finished.
func (c *Connection) Established() bool { return c.state == stateEstablished }

// Closed reports whether the connection terminated.
func (c *Connection) Closed() bool { return c.state == stateClosed }

// RTT returns the connection's RTT estimator (read-only use).
func (c *Connection) RTT() *RTTEstimator { return &c.rtt }

// ReceivedPacketRanges returns the packet-number ranges received so far,
// ascending. Gaps are exactly the packets the network lost towards us —
// the paper's download loss-accounting methodology.
func (c *Connection) ReceivedPacketRanges() []AckRange { return c.recvSet.Ranges() }

// LargestSentPN returns the next packet number to be used minus one.
func (c *Connection) LargestSentPN() (uint64, bool) {
	if c.nextPN == 0 {
		return 0, false
	}
	return c.nextPN - 1, true
}

// startHandshake begins the client side of the handshake. With a cached
// session ticket and EnableZeroRTT, the connection resumes at 0-RTT: it
// is usable immediately (streams open and data rides the first flight
// alongside the resumption hello) while the ticket exchange completes in
// the background. The server needs no special handling — it already runs
// 0.5-RTT, establishing on the hello.
func (c *Connection) startHandshake() {
	c.cryptoOut = clientHelloSize
	if c.cfg.EnableZeroRTT && c.cfg.Sessions != nil && c.cfg.Sessions.Has(c.remote, c.remotePort) {
		c.resumed = true
		c.Stats.ZeroRTTResumed = true
		c.state = stateEstablished
		c.needMaxData = true
		// Callers assign OnEstablished after Dial returns, so fire it
		// from a zero-delay event rather than synchronously here.
		c.sched.AfterFunc(0, qcZeroRTTEstablished, c)
	}
	c.maybeSend()
}

// OpenStream opens a locally initiated bidirectional stream.
func (c *Connection) OpenStream() *Stream {
	id := c.nextStreamID
	c.nextStreamID += 4
	s := c.newStream(id)
	// Advertise the stream receive window explicitly (see establish).
	c.queueFrame(&MaxStreamDataFrame{StreamID: id, Max: s.maxRecvData})
	return s
}

func (c *Connection) newStream(id uint64) *Stream {
	s := &Stream{
		id:          id,
		conn:        c,
		maxSendData: c.cfg.InitialMaxStreamData,
		maxRecvData: c.cfg.InitialMaxStreamData,
		recvWindow:  c.cfg.InitialMaxStreamData,
	}
	c.streams[id] = s
	return s
}

// Close terminates the connection, emitting CONNECTION_CLOSE.
func (c *Connection) Close(code uint64, reason string) {
	if c.state == stateClosed {
		return
	}
	frames := c.frameBuf[:0]
	if ack := c.buildAck(); ack != nil {
		frames = append(frames, ack)
	}
	c.sendPacket(append(frames, &ConnectionCloseFrame{ErrorCode: code, Reason: reason}))
	c.teardown()
}

func (c *Connection) teardown() {
	c.state = stateClosed
	c.timer.Stop()
	c.ackTimer.Stop()
	c.pacingTimer.Stop()
	c.ep.removeConn(c.connID)
	if c.OnClosed != nil {
		c.OnClosed()
	}
}

// markActive queues a stream for round-robin sending.
func (c *Connection) markActive(s *Stream) {
	if !c.activeSet[s.id] {
		c.activeSet[s.id] = true
		c.active = append(c.active, s.id)
	}
}

// dropActive removes the stream at the head of the send order.
func (c *Connection) dropActive() {
	delete(c.activeSet, c.active[0])
	c.active = c.active[:copy(c.active, c.active[1:])]
}

// onStreamConsumed returns flow-control credit after the application
// consumed data, growing windows by autotuning when permitted.
func (c *Connection) onStreamConsumed(s *Stream, n uint64) {
	c.dataConsumed += n

	// Stream window.
	if s.maxRecvData-s.recvOffset < s.recvWindow/2 {
		if c.cfg.MaxReceiveWindow > 0 && s.recvWindow*2 <= c.cfg.MaxReceiveWindow {
			s.recvWindow *= 2
		}
		s.maxRecvData = s.recvOffset + s.recvWindow
		c.queueFrame(&MaxStreamDataFrame{StreamID: s.id, Max: s.maxRecvData})
	}
	// Connection window.
	if c.maxDataLocal-c.dataConsumed < c.connWindow/2 {
		if c.cfg.MaxReceiveWindow > 0 && c.connWindow*2 <= c.cfg.MaxReceiveWindow {
			c.connWindow *= 2
		}
		c.maxDataLocal = c.dataConsumed + c.connWindow
		c.needMaxData = true
	}
	c.maybeSend()
}

func (c *Connection) queueFrame(f Frame) {
	c.retxQueue.push(f)
}

// getStreamFrame returns a STREAM frame struct for the caller to fill in
// completely; putStreamFrame takes it back once its single owner (an
// in-flight packet, or the retransmission queue) is done with it.
func (c *Connection) getStreamFrame() *StreamFrame {
	if f := c.frameFree.Get(); f != nil {
		return f
	}
	return new(StreamFrame)
}

func (c *Connection) putStreamFrame(f *StreamFrame) {
	*f = StreamFrame{}
	if c.ep.scribble {
		f.StreamID, f.Offset, f.Data = MaxVarint, MaxVarint, scribbled[:]
	}
	c.frameFree.Put(f)
}

// scribbled is what a recycled frame struct points at under
// Endpoint.scribble.
var scribbled = [...]byte{0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB}

// recycleSent returns packets that left loss detection to the freelist.
// Their frames have moved on by now: acked STREAM frames went back in
// onAckReceived, lost frames to the retransmission queue.
func (c *Connection) recycleSent(sps []*sentPacket) {
	for _, sp := range sps {
		clear(sp.frames)
		*sp = sentPacket{frames: sp.frames[:0]}
		if c.ep.scribble {
			sp.pn, sp.size = MaxVarint, -1
		}
		c.sentFree.Put(sp)
	}
}

// getChunk returns an empty buffer with room for n bytes of out-of-order
// stream data; putChunk takes it back after delivery.
func (c *Connection) getChunk(n int) []byte {
	if k := len(c.chunkFree); k > 0 && cap(c.chunkFree[k-1]) >= n {
		b := c.chunkFree[k-1]
		c.chunkFree[k-1] = nil
		c.chunkFree = c.chunkFree[:k-1]
		return b
	}
	return make([]byte, 0, max(n, MaxPayloadSize))
}

func (c *Connection) putChunk(b []byte) {
	if c.ep.scribble {
		scribble(b[:cap(b)])
	}
	c.chunkFree = append(c.chunkFree, b[:0])
}

// ---------------------------------------------------------------------
// Receive path.

func (c *Connection) handlePacket(p *Packet, from netem.Addr, fromPort uint16) {
	if c.state == stateClosed {
		return
	}
	now := c.sched.Now()
	c.Stats.PacketsReceived++
	if c.TraceReceived != nil {
		c.TraceReceived(now, p.Header.Number, p.Size)
	}
	if c.cfg.AllowMigration && c.state == stateEstablished &&
		(from != c.remote || fromPort != c.remotePort) {
		// Connection migration (RFC 9000 §9): the peer's packets arrive
		// from a new address/port — a handover/outage expired its NAT
		// mapping and the rebinding allocated a fresh one. Follow the
		// new path so replies stop dying at the stale mapping.
		c.remote, c.remotePort = from, fromPort
		c.Stats.PathMigrations++
	}
	if c.recvSet.Contains(p.Header.Number) {
		c.Stats.DuplicatesRecv++
		return
	}
	c.recvSet.Insert(p.Header.Number)
	c.largestRecvAt = now
	c.Stats.BytesReceived += uint64(p.Size)

	for _, f := range p.Frames {
		switch f := f.(type) {
		case *AckFrame:
			c.onAckReceived(f, now)
		case *CryptoFrame:
			c.onCrypto(f)
		case *StreamFrame:
			c.onStreamFrame(f)
		case *MaxDataFrame:
			if f.Max > c.maxDataRemote {
				c.maxDataRemote = f.Max
			}
		case *MaxStreamDataFrame:
			// The update may precede the stream's first STREAM frame
			// (it rides earlier in the same packet): create the stream
			// so the new limit is not lost.
			s := c.getOrCreateRemoteStream(f.StreamID)
			if f.Max > s.maxSendData {
				s.maxSendData = f.Max
				if s.pendingSend() {
					c.markActive(s)
				}
			}
		case *ConnectionCloseFrame:
			c.teardown()
			return
		case *PingFrame, *PaddingFrame, *DataBlockedFrame:
			// PING only elicits an ACK; PADDING and DATA_BLOCKED are
			// informational.
		}
	}

	if p.AckEliciting() {
		c.elicitingSince++
		if c.elicitingSince >= c.cfg.AckElicitingThreshold {
			c.ackPending = true
		} else if !c.ackTimer.Pending() {
			c.ackTimer = c.sched.AfterFunc(c.cfg.MaxAckDelay, qcAckTimeout, c)
		}
	}
	c.maybeSend()
}

func (c *Connection) onCrypto(f *CryptoFrame) {
	end := f.Offset + uint64(len(f.Data))
	if end > c.cryptoRecvOff {
		off := f.Offset
		if off < c.cryptoRecvOff {
			off = c.cryptoRecvOff
		}
		// Insert sorted and advance over what is now contiguous.
		i := 0
		for i < len(c.cryptoRecv) && c.cryptoRecv[i].off < off {
			i++
		}
		c.cryptoRecv = append(c.cryptoRecv, offRange{})
		copy(c.cryptoRecv[i+1:], c.cryptoRecv[i:])
		c.cryptoRecv[i] = offRange{off: off, end: end}
		n := 0
		for n < len(c.cryptoRecv) && c.cryptoRecv[n].off <= c.cryptoRecvOff {
			if e := c.cryptoRecv[n].end; e > c.cryptoRecvOff {
				c.cryptoRecvOff = e
			}
			n++
		}
		c.cryptoRecv = c.cryptoRecv[:copy(c.cryptoRecv, c.cryptoRecv[n:])]
	}
	c.handshakeProgress()
}

// handshakeProgress advances the emulated TLS state machine on crypto
// delivery.
func (c *Connection) handshakeProgress() {
	switch {
	case !c.isClient && c.state == stateHandshaking && c.cryptoRecvOff >= clientHelloSize && c.cryptoOut == 0:
		// Server: ClientHello in, emit the server flight and (like TLS
		// 1.3 0.5-RTT) consider the connection usable.
		c.cryptoOut = serverFlightSize
		c.establish()
	case c.isClient && c.state == stateHandshaking && c.cryptoRecvOff >= serverFlightSize:
		// Client: full server flight received; send Finished, done.
		c.cryptoOut += clientFinishedSize
		c.establish()
	case c.isClient && c.resumed && !c.hsConfirmed && c.cryptoRecvOff >= serverFlightSize:
		// Resumed client: the connection has been usable since the first
		// flight; the server flight merely confirms the ticket exchange.
		c.hsConfirmed = true
	}
}

func (c *Connection) establish() {
	c.state = stateEstablished
	c.hsConfirmed = true
	if c.isClient && c.cfg.Sessions != nil {
		// Record the session ticket so the next Dial to this server can
		// resume at 0-RTT.
		c.cfg.Sessions.put(c.remote, c.remotePort)
	}
	// Advertise our real connection flow-control limit: transport
	// parameters are not exchanged in the emulated handshake, so peers
	// start from conservative assumptions and this update corrects an
	// asymmetric configuration (e.g. the 150 MB receive-window
	// ablation).
	c.needMaxData = true
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
}

// getOrCreateRemoteStream returns the stream, creating it (and firing
// OnStream) when a peer-initiated frame references it first.
func (c *Connection) getOrCreateRemoteStream(id uint64) *Stream {
	s := c.streams[id]
	if s == nil {
		s = c.newStream(id)
		if c.OnStream != nil {
			c.OnStream(s)
		}
	}
	return s
}

func (c *Connection) onStreamFrame(f *StreamFrame) {
	s := c.getOrCreateRemoteStream(f.StreamID)
	c.dataRecv += s.receive(f)
}

// ---------------------------------------------------------------------
// ACK processing and loss detection.

func (c *Connection) onAckReceived(ack *AckFrame, now sim.Time) {
	res := c.ld.onAck(ack, now, c.rtt.LossDelay())

	if res.LargestNew != nil && res.LargestNew.pn == ack.Largest() {
		sample := now.Sub(res.LargestNew.sentAt)
		delay := ack.AckDelay
		if delay > c.cfg.MaxAckDelay {
			delay = c.cfg.MaxAckDelay
		}
		c.rtt.UpdateAt(now, sample, delay)
		if c.OnRTTSample != nil {
			c.OnRTTSample(now, sample)
		}
	}

	for _, sp := range res.Newly {
		c.Stats.PacketsAcked++
		c.cc.OnPacketAcked(now, sp.size, &c.rtt)
		if c.obs != nil {
			c.obs.cwnd.Observe(int64(c.cc.Window()))
		}
		for _, f := range sp.frames {
			if sf, ok := f.(*StreamFrame); ok {
				if s := c.streams[sf.StreamID]; s != nil {
					s.onFrameAcked(sf)
				}
				c.putStreamFrame(sf)
			}
		}
	}
	c.handleLost(res.Lost, now)
	if len(res.Newly) > 0 {
		c.ptoCount = 0
	}
	c.recycleSent(res.Newly)
	c.setTimer()
	c.maybeSend()
}

// handleLost reacts to packets declared lost: their frames move to the
// retransmission queue (flow-control updates are regenerated instead) and
// the packet records are recycled.
func (c *Connection) handleLost(lost []*sentPacket, now sim.Time) {
	for _, sp := range lost {
		c.Stats.PacketsLost++
		if c.obs != nil {
			c.obs.lost.Inc()
		}
		c.cc.OnCongestionEvent(now, sp.sentAt)
		for _, f := range sp.frames {
			switch f := f.(type) {
			case *MaxDataFrame:
				c.needMaxData = true
			case *MaxStreamDataFrame:
				if s := c.streams[f.StreamID]; s != nil {
					c.queueFrame(&MaxStreamDataFrame{StreamID: f.StreamID, Max: s.maxRecvData})
				}
			default:
				c.Stats.FramesRetransmitted++
				if c.obs != nil {
					c.obs.retxFrms.Inc()
				}
				c.retxQueue.push(f)
			}
		}
	}
	c.recycleSent(lost)
}

// setTimer arms the single recovery timer: loss-time mode when candidates
// exist, PTO mode while ack-eliciting packets are in flight.
func (c *Connection) setTimer() {
	c.timer.Stop()
	c.timer = sim.TimerHandle{}
	if c.state == stateClosed {
		return
	}
	if at, ok := c.ld.earliestLossTime(c.rtt.LossDelay()); ok {
		if at < c.sched.Now() {
			at = c.sched.Now()
		}
		c.timer = c.sched.AtFunc(at, qcLossTimer, c)
		return
	}
	if c.ld.HasUnacked() {
		pto := c.rtt.PTO(c.cfg.MaxAckDelay) << uint(c.ptoCount)
		at := c.lastElicitingSent.Add(pto)
		if now := c.sched.Now(); at < now {
			at = now
		}
		c.timer = c.sched.AtFunc(at, qcPTO, c)
	}
}

func (c *Connection) onLossTimer() {
	now := c.sched.Now()
	lost := c.ld.detectTimeLosses(now, c.rtt.LossDelay())
	c.handleLost(lost, now)
	c.setTimer()
	c.maybeSend()
}

func (c *Connection) onPTO() {
	c.ptoCount++
	c.Stats.ProbesSent++
	if c.obs != nil {
		c.obs.ptos.Inc()
		c.obs.tr.Emit(c.sched.Now(), obs.KindPTO, c.obs.subj, int64(c.ptoCount), 0)
	}
	// Probe with the oldest unacked ack-eliciting data under a fresh
	// packet number; PING when nothing is outstanding.
	frames := c.frameBuf[:0]
	if sp := c.ld.oldestEliciting(); sp != nil {
		for _, f := range sp.frames {
			if f.AckEliciting() {
				frames = append(frames, c.cloneForProbe(f))
			}
		}
	}
	if len(frames) == 0 {
		frames = append(frames, &PingFrame{})
	}
	c.sendPacket(frames)
	c.setTimer()
}

// cloneForProbe returns the frame a PTO probe carries in place of f, which
// the probed packet keeps. The two packets are acked or lost independently
// — both lost means both copies are requeued — so each must own the frame
// structs it recycles: STREAM frames are cloned (the payload bytes stay
// shared, they are never written). The other kinds are immutable and
// garbage collected, so the probe carries f itself.
func (c *Connection) cloneForProbe(f Frame) Frame {
	sf, ok := f.(*StreamFrame)
	if !ok {
		return f
	}
	cp := c.getStreamFrame()
	*cp = *sf
	return cp
}

// ---------------------------------------------------------------------
// Send path.

// buildAck returns the pending ACK frame, or nil. The frame is the
// connection's scratch: it is good until the next buildAck.
func (c *Connection) buildAck() *AckFrame {
	ack := &c.ackFrame
	ack.Ranges = c.recvSet.AckRanges(ack.Ranges[:0], 32)
	if len(ack.Ranges) == 0 {
		return nil
	}
	ack.AckDelay = max(c.sched.Now().Sub(c.largestRecvAt), 0)
	return ack
}

func (c *Connection) ackSent() {
	c.ackPending = false
	c.elicitingSince = 0
	c.ackTimer.Stop()
	c.ackTimer = sim.TimerHandle{}
}

// hasCryptoToSend reports pending handshake bytes.
func (c *Connection) hasCryptoToSend() bool {
	return c.cryptoOut > 0
}

// maybeSend drives the packetizer: it emits packets while there is
// something to send and the congestion window (for ack-eliciting data)
// and pacer allow.
func (c *Connection) maybeSend() {
	if c.inSend || c.state == stateClosed {
		return
	}
	c.inSend = true
	defer func() { c.inSend = false }()

	for c.state != stateClosed {
		canSendData := c.ld.InFlight() < c.cc.Window()

		frames, eliciting := c.buildPacket(canSendData)
		if len(frames) == 0 {
			break
		}
		if eliciting && c.pacer.Enabled {
			size := headerOverhead
			for _, f := range frames {
				size += f.WireLen()
			}
			if d := c.pacer.DelayFor(c.sched.Now(), size, c.cc, &c.rtt); d > 0 {
				// Put the retransmittable frames back and retry after
				// the pacing gap; a withheld ACK stays pending.
				keep := frames[:0]
				for _, f := range frames {
					if _, isAck := f.(*AckFrame); !isAck {
						keep = append(keep, f)
					}
				}
				c.retxQueue.pushFront(keep)
				if !c.pacingTimer.Pending() {
					c.pacingTimer = c.sched.AfterFunc(d, qcMaybeSend, c)
				}
				break
			}
		}
		c.sendPacket(frames)
	}
	c.setTimer()
}

// buildPacket assembles up to one packet's worth of frames. canSendData
// gates ack-eliciting content (pure ACKs are never congestion blocked).
// The returned slice is the connection's scratch, overwritten by the next
// call.
func (c *Connection) buildPacket(canSendData bool) (frames []Frame, eliciting bool) {
	remaining := MaxPayloadSize
	frames = c.frameBuf[:0]

	if c.ackPending {
		if ack := c.buildAck(); ack != nil && ack.WireLen() <= remaining {
			frames = append(frames, ack)
			remaining -= ack.WireLen()
		}
	}

	if canSendData {
		// Handshake bytes first.
		for c.hasCryptoToSend() && remaining > 8 {
			chunk := c.cryptoOut
			maxData := remaining - 1 - VarintLen(c.cryptoBase) - 4
			if chunk > maxData {
				chunk = maxData
			}
			if chunk <= 0 {
				break
			}
			f := &CryptoFrame{Offset: c.cryptoBase, Data: zeroPage[:chunk]}
			c.cryptoOut -= chunk
			c.cryptoBase += uint64(chunk)
			frames = append(frames, f)
			remaining -= f.WireLen()
		}

		// Flow-control updates.
		if c.needMaxData && remaining >= 9 {
			f := &MaxDataFrame{Max: c.maxDataLocal}
			frames = append(frames, f)
			remaining -= f.WireLen()
			c.needMaxData = false
		}

		// Retransmissions and queued control frames.
		for c.retxQueue.len() > 0 && remaining > 0 {
			f := c.retxQueue.front()
			if f.WireLen() > remaining {
				// Split oversized stream frames; other frames wait.
				if sf, ok := f.(*StreamFrame); ok && remaining > 16 {
					head := remaining - 1 - VarintLen(sf.StreamID) - VarintLen(sf.Offset) - 4
					if head > 0 && head < len(sf.Data) {
						// The queue owns sf: it keeps the tail in place.
						part := c.getStreamFrame()
						*part = StreamFrame{StreamID: sf.StreamID, Offset: sf.Offset, Data: sf.Data[:head]}
						sf.Offset += uint64(head)
						sf.Data = sf.Data[head:]
						frames = append(frames, part)
						remaining -= part.WireLen()
					}
				}
				break
			}
			c.retxQueue.pop()
			frames = append(frames, f)
			remaining -= f.WireLen()
		}

		// Fresh stream data, round-robin, within connection flow control.
		if c.state == stateEstablished {
			for remaining > 16 && len(c.active) > 0 {
				id := c.active[0]
				s := c.streams[id]
				if s == nil || !s.pendingSend() {
					c.dropActive()
					continue
				}
				connBudget := int(c.maxDataRemote - c.dataSent)
				if connBudget <= 0 {
					if c.blockedAtLimit != c.maxDataRemote && remaining >= 9 {
						f := &DataBlockedFrame{Limit: c.maxDataRemote}
						frames = append(frames, f)
						remaining -= f.WireLen()
						c.blockedAtLimit = c.maxDataRemote
					}
					break
				}
				budget := remaining - 1 - VarintLen(id) - VarintLen(s.sendBase) - 4
				if budget > connBudget {
					budget = connBudget
				}
				f := s.nextFrame(budget)
				if f == nil {
					// Blocked by stream flow control or empty.
					c.dropActive()
					continue
				}
				c.dataSent += uint64(len(f.Data))
				frames = append(frames, f)
				remaining -= f.WireLen()
				// Rotate for fairness.
				copy(c.active, c.active[1:])
				c.active[len(c.active)-1] = id
			}
		}
	}

	c.frameBuf = frames[:0]
	if len(frames) == 0 {
		return nil, false
	}
	for _, f := range frames {
		if f.AckEliciting() {
			eliciting = true
			break
		}
	}
	return frames, eliciting
}

// sendPacket serializes and transmits one packet built from frames. The
// ack-eliciting frames become the in-flight packet's; the slice itself and
// the others are not kept.
func (c *Connection) sendPacket(frames []Frame) {
	if len(frames) == 0 {
		return
	}
	now := c.sched.Now()
	// The Handshake bit tracks stateHandshaking exactly except for 0-RTT
	// resumption, where the connection is usable while the ticket
	// exchange is still in flight — those packets keep the bit so the
	// server endpoint accepts them as connection-opening.
	hdr := PacketHeader{
		Handshake: !c.hsConfirmed,
		ConnID:    c.connID,
		Number:    c.nextPN,
	}
	eliciting := false
	for _, f := range frames {
		if f.AckEliciting() {
			eliciting = true
			break
		}
	}
	// Pad the client's first flight like Initial packets must be.
	if hdr.Handshake && c.isClient && hdr.Number == 0 {
		size := headerOverhead
		for _, f := range frames {
			size += f.WireLen()
		}
		if size < initialPadTarget {
			frames = append(frames, &PaddingFrame{Length: initialPadTarget - size})
		}
	}
	c.nextPN++
	w := c.ep.getWire()
	w.b = appendPacket(w.b, hdr, frames)
	size := len(w.b)

	hasAck := false
	for _, f := range frames {
		if _, ok := f.(*AckFrame); ok {
			hasAck = true
			break
		}
	}
	if hasAck {
		c.ackSent()
		c.Stats.AcksSent++
	}

	c.Stats.PacketsSent++
	c.Stats.BytesSent += uint64(size)
	if eliciting {
		c.Stats.AckElicitingSent++
		c.lastElicitingSent = now
		sp := c.sentFree.Get()
		if sp == nil {
			sp = new(sentPacket)
		}
		sp.pn, sp.sentAt, sp.size, sp.ackEliciting = hdr.Number, now, size, true
		for _, f := range frames {
			if f.AckEliciting() {
				sp.frames = append(sp.frames, f)
			}
		}
		c.ld.onPacketSent(sp)
		c.cc.OnPacketSent(now, size)
	}
	// Last: frames is scratch and the wire buffer is the datapath's now.
	c.ep.sendDatagram(c.remote, c.remotePort, w)
}

// Scheduler trampolines: package-level sim.EventFunc adapters so the
// recovery timer (re-armed after every send and every ACK), the pacing
// timer (re-armed per packet under pacing), and the max-ack-delay timer
// schedule without allocating a bound-method closure per arming.
func qcLossTimer(arg any) { arg.(*Connection).onLossTimer() }
func qcZeroRTTEstablished(arg any) {
	c := arg.(*Connection)
	if c.state == stateEstablished && c.OnEstablished != nil {
		c.OnEstablished()
	}
}
func qcPTO(arg any)       { arg.(*Connection).onPTO() }
func qcMaybeSend(arg any) { arg.(*Connection).maybeSend() }
func qcAckTimeout(arg any) {
	c := arg.(*Connection)
	c.ackPending = true
	c.maybeSend()
}
