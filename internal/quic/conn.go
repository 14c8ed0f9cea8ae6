package quic

import (
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// quicObs caches the metric handles a connection writes into, all
// pointing at the shared registry/tracer of the network's sink.
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

// Config carries what differs between the transports one run compares:
// the congestion controller, pacing and 0-RTT resumption. The zero Config
// is the paper's quiche. Flow control and ACK timing are quiche's
// constants below, the same at every endpoint.
type Config struct {
	// NewCC constructs the congestion controller; nil means CUBIC.
	NewCC func() cc.CongestionController
	// EnablePacing spaces ack-eliciting departures at the pacing rate
	// (1.25x cwnd/SRTT, or the controller's own rate when it implements
	// cc.PacingRater) with a max-burst token bucket. quiche at the
	// paper's commit did not pace; the default is off.
	EnablePacing bool
	// Sessions is the session-ticket cache shared across endpoints (the
	// testbed owns one for the modern profile): clients record a ticket
	// per (address, port) on every completed handshake, and a client that
	// has one for its server resumes at 0-RTT: Dial returns a connection
	// that is immediately usable, with the session-ticket exchange
	// completing in the background. nil (the paper's quiche) never
	// resumes.
	Sessions *SessionCache
}

// quiche's transport parameters at the paper's commit. Both receive
// windows, the connection's and each stream's, start at initialWindow
// (initial_max_data and initial_max_stream_data, 10 MB) and autotuning
// doubles one no further than maxWindow; an ACK is withheld at most
// maxAckDelay. The paper's §3.3 re-run with a 150 MB window showed the
// windows never bind on Starlink; TestDefaultWindowsNeverBlockStarlinkDownload
// holds these constants to that.
const (
	initialWindow = 10 << 20
	maxWindow     = 40 << 20
	maxAckDelay   = 25 * time.Millisecond
)

// AckElicitingThreshold is the count of ack-eliciting packets received
// that forces an immediate ACK (2, per RFC 9000 §13.2.2).
const AckElicitingThreshold = 2

// Stats aggregates connection counters.
type Stats struct {
	PacketsSent         uint64
	AckElicitingSent    uint64
	PacketsReceived     uint64
	DuplicatesRecv      uint64
	PacketsAcked        uint64 // our packets acked by the peer
	PacketsLost         uint64 // sender-declared losses
	ProbesSent          uint64
	ZeroRTTResumed      bool // connection skipped the handshake RTT
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
	cc                cc.CongestionController
	pacer             cc.Pacer
	rtt               cc.RTTEstimator
	ptoCount          int
	timer             sim.TimerHandle
	lastElicitingSent sim.Time
	retxQueue         sim.Ring[Frame] // frames awaiting (re)transmission
	pacingTimer       sim.TimerHandle

	// Crypto (opaque handshake bytes, offset-tracked like a stream: the
	// sender counts what is left to packetize, the receiver keeps the
	// offset ranges that arrived ahead of a gap and the end of the
	// contiguous prefix).
	cryptoOut   int
	cryptoBase  uint64
	cryptoIn    sim.Ranges
	cryptoInOff uint64

	// Receive side / ACK generation. Packet numbers are never skipped, so
	// the gaps in recvSet are exactly the packets lost towards us — the
	// paper's download loss methodology.
	recvSet        sim.Ranges
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
	// windowCap and ackDelayCap are maxWindow and maxAckDelay; in-package
	// tests lower them on one connection (0 stops autotuning).
	windowCap   uint64
	ackDelayCap time.Duration

	// Streams.
	streams      map[uint64]*Stream
	active       sim.Ring[uint64] // round-robin send order
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
	// built (dead once sendPacket encoded it), and ackTail the encoding of
	// the last ACK's ranges past the first, which the next ACK reuses
	// while they stay the same. What an in-flight packet owns — its
	// sentPacket record and STREAM frame structs, back when it is acked or
	// declared lost — and its wire buffer come from the network's pool
	// (ep.pool), whose lists a sweep worker's next network inherits.
	ackFrame AckFrame
	ackTail  ackTail
	frameBuf []Frame
}

func newConnection(ep *Endpoint, cfg Config, isClient bool, connID uint64, remote netem.Addr, remotePort uint16) *Connection {
	newCC := cfg.NewCC
	if newCC == nil {
		newCC = func() cc.CongestionController { return cc.NewCubic(MaxPayloadSize) }
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
		pacer:         cc.Pacer{Enabled: cfg.EnablePacing},
		maxDataLocal:  initialWindow,
		connWindow:    initialWindow,
		maxDataRemote: initialWindow, // every peer starts from the same window
		windowCap:     maxWindow,
		ackDelayCap:   maxAckDelay,
		streams:       make(map[uint64]*Stream),
		activeSet:     make(map[uint64]bool),
		obs:           newQUICObs(ep.node.Network().Sink()),
	}
	c.rtt = cc.NewRTTEstimator(c.cc)
	if isClient {
		c.nextStreamID = 0
	} else {
		c.nextStreamID = 1
	}
	return c
}

// Sched returns the simulation scheduler driving the connection.
func (c *Connection) Sched() *sim.Scheduler { return c.sched }

// Closed reports whether the connection terminated.
func (c *Connection) Closed() bool { return c.state == stateClosed }

// startHandshake begins the client side of the handshake. With a cached
// session ticket in Sessions, the connection resumes at 0-RTT: it
// is usable immediately (streams open and data rides the first flight
// alongside the resumption hello) while the ticket exchange completes in
// the background. The server needs no special handling — it already runs
// 0.5-RTT, establishing on the hello.
func (c *Connection) startHandshake() {
	c.cryptoOut = clientHelloSize
	if c.cfg.Sessions != nil && c.cfg.Sessions.Has(c.remote, c.remotePort) {
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
		maxSendData: initialWindow,
		maxRecvData: initialWindow,
		recvWindow:  initialWindow,
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
	// Queued STREAM frames and the records of unresolved packets go back
	// to the network's pool.
	for c.retxQueue.Len() > 0 {
		if sf, ok := c.retxQueue.Pop().(*StreamFrame); ok {
			c.putStreamFrame(sf)
		}
	}
	for _, sp := range c.ld.candidates {
		c.releaseHeld(sp)
	}
	for c.ld.sent.Len() > 0 {
		c.releaseHeld(c.ld.sent.Pop())
	}
	c.ld = lossDetector{}
	if c.OnClosed != nil {
		c.OnClosed()
	}
}

// markActive queues a stream for round-robin sending.
func (c *Connection) markActive(s *Stream) {
	if !c.activeSet[s.id] {
		c.activeSet[s.id] = true
		c.active.Push(s.id)
	}
}

// dropActive removes the stream at the head of the send order.
func (c *Connection) dropActive() {
	delete(c.activeSet, c.active.Pop())
}

// onStreamConsumed returns flow-control credit after the application
// consumed data, growing windows by autotuning when permitted.
func (c *Connection) onStreamConsumed(s *Stream, n uint64) {
	c.dataConsumed += n

	// Stream window.
	if s.maxRecvData-s.recvOffset < s.recvWindow/2 {
		if s.recvWindow*2 <= c.windowCap {
			s.recvWindow *= 2
		}
		s.maxRecvData = s.recvOffset + s.recvWindow
		c.queueFrame(&MaxStreamDataFrame{StreamID: s.id, Max: s.maxRecvData})
	}
	// Connection window.
	if c.maxDataLocal-c.dataConsumed < c.connWindow/2 {
		if c.connWindow*2 <= c.windowCap {
			c.connWindow *= 2
		}
		c.maxDataLocal = c.dataConsumed + c.connWindow
		c.needMaxData = true
	}
	c.maybeSend()
}

func (c *Connection) queueFrame(f Frame) {
	c.retxQueue.Push(f)
}

// getStreamFrame returns a STREAM frame struct for the caller to fill in
// completely; putStreamFrame takes it back once its single owner (an
// in-flight packet, or the retransmission queue) is done with it.
func (c *Connection) getStreamFrame() *StreamFrame {
	if f := c.ep.pool.frames.Get(); f != nil {
		return f
	}
	return new(StreamFrame)
}

// putStreamFrame lists f for the next getStreamFrame on the network; a
// network in no-recycle mode reuses none.
func (c *Connection) putStreamFrame(f *StreamFrame) {
	p := c.ep.pool
	if !p.nw.Recycling() {
		return
	}
	*f = StreamFrame{}
	if p.scribble {
		f.StreamID, f.Offset, f.Data = MaxVarint, MaxVarint, scribbled[:]
	}
	p.frames.Put(f)
}

// scribbled is what a recycled frame struct points at under
// wirePool.scribble.
var scribbled = [...]byte{0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB, 0xDB}

// recycleSent returns a packet that left loss detection to the network's
// freelist; a network in no-recycle mode reuses none. Its frames have
// moved on by now: acked STREAM frames went back in onAckReceived, lost
// frames to the retransmission queue.
func (c *Connection) recycleSent(sp *sentPacket) {
	p := c.ep.pool
	if !p.nw.Recycling() {
		return
	}
	clear(sp.frames)
	*sp = sentPacket{frames: sp.frames[:0]}
	if p.scribble {
		sp.pn, sp.size = MaxVarint, -1
	}
	p.sent.Put(sp)
}

// releaseHeld returns at teardown the record of a packet neither acked
// nor declared lost, with the STREAM frames it carried.
func (c *Connection) releaseHeld(sp *sentPacket) {
	for _, f := range sp.frames {
		if sf, ok := f.(*StreamFrame); ok {
			c.putStreamFrame(sf)
		}
	}
	c.recycleSent(sp)
}

// ---------------------------------------------------------------------
// Receive path.

func (c *Connection) handlePacket(p *Packet) {
	if c.state == stateClosed {
		return
	}
	now := c.sched.Now()
	c.Stats.PacketsReceived++
	if c.TraceReceived != nil {
		c.TraceReceived(now, p.Header.Number, p.Size)
	}
	pn := p.Header.Number
	if c.recvSet.Covered(pn, pn+1) {
		c.Stats.DuplicatesRecv++
		return
	}
	c.recvSet.Insert(pn, pn+1)
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
		if c.elicitingSince >= AckElicitingThreshold {
			c.ackPending = true
		} else if !c.ackTimer.Pending() {
			c.ackTimer = c.sched.Rearm(c.ackTimer, c.sched.Now().Add(c.ackDelayCap), qcAckTimeout, c)
		}
	}
	c.maybeSend()
}

func (c *Connection) onCrypto(f *CryptoFrame) {
	c.cryptoIn.Insert(f.Offset, f.Offset+uint64(len(f.Data)))
	c.cryptoInOff = c.cryptoIn.ContiguousFrom(c.cryptoInOff)
	c.handshakeProgress()
}

// handshakeProgress advances the emulated TLS state machine on crypto
// delivery.
func (c *Connection) handshakeProgress() {
	switch {
	case !c.isClient && c.state == stateHandshaking && c.cryptoInOff >= clientHelloSize && c.cryptoOut == 0:
		// Server: ClientHello in, emit the server flight and (like TLS
		// 1.3 0.5-RTT) consider the connection usable.
		c.cryptoOut = serverFlightSize
		c.establish()
	case c.isClient && c.state == stateHandshaking && c.cryptoInOff >= serverFlightSize:
		// Client: full server flight received; send Finished, done.
		c.cryptoOut += clientFinishedSize
		c.establish()
	case c.isClient && c.resumed && !c.hsConfirmed && c.cryptoInOff >= serverFlightSize:
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
	// Advertise our connection flow-control limit: transport parameters
	// are not exchanged in the emulated handshake, so each peer assumes
	// the window it starts from itself, and this update states it.
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
		if delay > c.ackDelayCap {
			delay = c.ackDelayCap
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
	for _, sp := range res.Newly {
		c.recycleSent(sp)
	}
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
				c.retxQueue.Push(f)
			}
		}
	}
	for _, sp := range lost {
		c.recycleSent(sp)
	}
}

// setTimer arms the single recovery timer: loss-time mode when candidates
// exist, PTO mode while ack-eliciting packets are in flight, stopped
// otherwise.
func (c *Connection) setTimer() {
	now := c.sched.Now()
	at, lossMode := c.ld.earliestLossTime(c.rtt.LossDelay())
	switch {
	case c.state == stateClosed:
		c.timer.Stop()
	case lossMode:
		c.timer = c.sched.Rearm(c.timer, max(at, now), qcLossTimer, c)
	case c.ld.HasUnacked():
		pto := c.rtt.PTO(c.ackDelayCap) << uint(c.ptoCount)
		c.timer = c.sched.Rearm(c.timer, max(c.lastElicitingSent.Add(pto), now), qcPTO, c)
	default:
		c.timer.Stop()
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
	// Probe with the frames of the oldest unacked ack-eliciting packet
	// under a fresh packet number. setTimer arms a PTO only while such a
	// packet is outstanding, and its record keeps its ack-eliciting frames
	// (sendPacket), at least one, so a probe always repeats data.
	frames := c.frameBuf[:0]
	for _, f := range c.ld.oldestEliciting().frames {
		frames = append(frames, c.cloneForProbe(f))
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
	spans := c.recvSet.Spans()
	if len(spans) == 0 {
		return nil
	}
	// The 32 most recent spans, descending, as the closed ranges the frame
	// carries.
	ack := &c.ackFrame
	ack.Ranges = ack.Ranges[:0]
	for i := len(spans) - 1; i >= max(0, len(spans)-32); i-- {
		ack.Ranges = append(ack.Ranges, AckRange{Smallest: spans[i].Start, Largest: spans[i].End - 1})
	}
	ack.AckDelay = max(c.sched.Now().Sub(c.largestRecvAt), 0)
	ack.tail = c.ackTail.encode(ack.Ranges)
	return ack
}

func (c *Connection) ackSent() {
	c.ackPending = false
	c.elicitingSince = 0
	c.ackTimer.Stop()
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
				for i := len(keep) - 1; i >= 0; i-- {
					c.retxQueue.PushFront(keep[i])
				}
				if !c.pacingTimer.Pending() {
					c.pacingTimer = c.sched.Rearm(c.pacingTimer, c.sched.Now().Add(d), qcMaybeSend, c)
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
		for c.retxQueue.Len() > 0 && remaining > 0 {
			f := *c.retxQueue.Front()
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
			c.retxQueue.Pop()
			frames = append(frames, f)
			remaining -= f.WireLen()
		}

		// Fresh stream data, round-robin, within connection flow control.
		if c.state == stateEstablished {
			for remaining > 16 && c.active.Len() > 0 {
				id := *c.active.Front()
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
				c.active.Push(c.active.Pop())
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

// sendPacket encodes and transmits one packet built from frames. The
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
	w := c.ep.pool.get()
	w.encode(hdr, frames)
	size := w.size()

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
		sp := c.ep.pool.sent.Get()
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
	c.ep.sendDatagram(c.remote, c.remotePort, w, size)
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
