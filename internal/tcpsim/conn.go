package tcpsim

import (
	"cmp"
	"slices"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// tcpObs caches the metric handles a connection writes into; one is
// built per connection from its network's sink, all pointing at the same
// shared registry/tracer, so counters aggregate across connections.
type tcpObs struct {
	tr       *obs.Tracer
	subj     obs.Subj
	rtos     *obs.Counter
	fastRetx *obs.Counter
	cwnd     *obs.Histogram
}

// newTCPObs returns the handles of a connection on node: nil —
// unobserved — without a node or on a network nobody observes.
func newTCPObs(node *netem.Node) *tcpObs {
	if node == nil {
		return nil
	}
	s := node.Network().Sink()
	if s == nil {
		return nil
	}
	reg, tr := s.Registry(), s.Tracer()
	return &tcpObs{
		tr:       tr,
		subj:     tr.Subject("tcp"),
		rtos:     reg.Counter("tcp.rto"),
		fastRetx: reg.Counter("tcp.fast_retx"),
		cwnd:     reg.Histogram("tcp.cwnd_bytes", obs.SizeBounds()),
	}
}

// Config carries the TCP/TLS parameters of one endpoint.
type Config struct {
	// InitialRcvWnd and MaxRcvWnd bound the receive window autotuning;
	// the defaults are the Linux testbed kernel's 131072 and 6291456.
	InitialRcvWnd uint64
	MaxRcvWnd     uint64
	// TLSRounds models the TLS handshake: 0 = plain TCP, 1 = TLS 1.3
	// (one round trip), 2 = TLS 1.2 (two round trips — the prevailing
	// web mix during the paper's campaign). The handshake is emulated by
	// byte counts, not negotiated: both endpoints of a connection must
	// be configured with the same value.
	TLSRounds int
	// NewCC builds the congestion controller per connection; nil means
	// CUBIC, as on the paper's testbed.
	NewCC func(mss int) cc.CongestionController
	// FastOpen lets the active side treat the connection as established
	// as soon as the SYN leaves, with data flowing right behind it —
	// how satellite PEPs run their pre-provisioned space-segment
	// connections (TFO-style 0-RTT).
	FastOpen bool
	// EnablePacing spaces data-segment departures at the rate derived
	// from the congestion controller (gain x cwnd/SRTT, or the
	// controller's own rate when it implements cc.PacingRater). Off by
	// default: the paper's testbed kernel ran without fq pacing.
	EnablePacing bool
}

// DefaultConfig returns the paper-testbed TCP configuration.
func DefaultConfig() Config {
	return Config{
		InitialRcvWnd: 131072,
		MaxRcvWnd:     6291456,
		TLSRounds:     2,
	}
}

// Endpoint constants of the paper's Linux testbed.
const (
	// MSS is the maximum segment size (payload bytes).
	MSS = 1460
	// minRTO floors the retransmission timeout.
	minRTO = 200 * time.Millisecond
	// maxRTOs is how many consecutive retransmission timeouts an
	// established connection survives (Linux tcp_retries2): the next one
	// tears it down, sending nothing.
	maxRTOs = 15
	// delayedAck is the delayed-ACK timer.
	delayedAck = 40 * time.Millisecond
	// serverProcessing is the server-side compute delay before each TLS
	// response flight.
	serverProcessing = 10 * time.Millisecond
)

// TLS flight sizes in bytes.
const (
	tlsClientHello    = 300
	tlsServerFlight   = 4000
	tlsClientFinish13 = 52
	tlsClientFlight12 = 400
	tlsServerFinish12 = 300
)

// State is the connection lifecycle state.
type State uint8

// Connection states.
const (
	StateIdle State = iota
	StateSYNSent
	StateSYNRcvd
	StateEstablished // TCP established; TLS possibly still running
	StateClosed
)

// Stats aggregates connection counters.
type Stats struct {
	SegmentsSent    uint64
	SegmentsRecv    uint64
	BytesSent       uint64 // payload, first transmissions
	BytesRetx       uint64
	BytesDelivered  uint64 // payload delivered in order to the app side
	RTOs            uint64
	FastRetransmits uint64
}

type txRecord struct {
	start, end uint64
	sentAt     sim.Time
	retx       bool
}

// Conn is one endpoint of a TCP connection.
type Conn struct {
	sched    *sim.Scheduler
	cfg      Config
	transmit func(*netem.Packet)
	isClient bool

	// node, when set, supplies pooled packet wrappers and pool its
	// network's segment freelist. Segments return there from the datapath
	// via Segment.ReleasePayload once the carrying packet is consumed.
	node *netem.Node
	pool *segPool

	localAddr  netem.Addr
	localPort  uint16
	remoteAddr netem.Addr
	remotePort uint16

	state        State
	tlsReady     bool
	peerSynAcked bool // active side saw the SYN-ACK

	// Timestamps for setup-time measurement.
	StartAt        sim.Time
	TCPEstablished sim.Time
	ReadyAt        sim.Time

	// Send state.
	sendEnd          uint64 // total bytes queued for sending (TLS + app)
	sndUna           uint64
	sndNxt           uint64
	retxQueue        sim.Ranges
	inflight         *sim.Ring[txRecord] // sent, not yet overtaken by highestDelivered, in send order; pooled
	candidates       []txRecord          // overtaken but neither delivered nor yet lost
	lost             []txRecord          // processAck scratch
	pipe             int                 // bytes in flight (RFC 6675 pipe estimate)
	sacked           sim.Ranges          // peer-reported SACK state, persistent
	highestDelivered uint64
	peerWnd          uint64
	finQueued        bool
	finSent          bool
	finAcked         bool
	ccc              cc.CongestionController
	rtt              cc.RTTEstimator
	pacer            cc.Pacer
	pacingTimer      sim.TimerHandle
	rtoCount         int
	rtoTimer         sim.TimerHandle
	synTimer         sim.TimerHandle
	lastRecvTS       sim.Time
	lastRecvTSRetx   bool

	// Receive state.
	rcvNxt         uint64
	recvRanges     sim.Ranges
	peerFinSeq     uint64
	peerFinSeen    bool
	finDelivered   bool
	rcvWnd         uint64
	bytesSinceTune uint64
	segsSinceAck   int
	ackTimer       sim.TimerHandle

	// Application messages.
	msgsOut []AppMsg // pending, sorted by offset
	msgsIn  []AppMsg // received, awaiting in-order delivery, sorted by offset

	// TLS bookkeeping.
	tlsSendQueued uint64 // TLS bytes we queued (prefix of the stream)
	tlsRecvTotal  uint64 // TLS bytes the peer sends before app data
	tlsStage      int

	// Application callbacks. OnEstablished fires when the connection is
	// ready for application data (after TLS); OnData delivers in-order
	// application byte counts.
	OnEstablished func()
	OnData        func(n int, fin bool)
	OnClosed      func()
	// OnMsg delivers application messages attached with WriteMsg, in
	// stream order, once the carrying bytes arrive in order.
	OnMsg func(msg any)
	// BacklogFn, when set, reports unconsumed application backlog held
	// behind this receiver (a relay's un-forwarded bytes): the
	// advertised window shrinks by it, back-pressuring the sender.
	BacklogFn func() int
	// OnSendProgress fires when the cumulative ack advances — relays
	// use it to re-open the peer's window as their backlog drains.
	OnSendProgress func()
	// closeHook runs on teardown before OnClosed; the Dial/Listen glue
	// uses it to unbind ports without racing user callbacks.
	closeHook func()

	obs *tcpObs

	Stats Stats
}

// ConnParams parameterizes direct connection construction (used by the
// Dial/Listen glue and by the PEP middlebox for spoofed legs).
type ConnParams struct {
	Sched    *sim.Scheduler
	Transmit func(*netem.Packet)
	// Node, when set, identifies the node this endpoint lives on; the
	// connection then draws packet wrappers and TCP segments from the
	// network's pools instead of allocating per send, and reports to the
	// network's observability sink when it has one.
	Node       *netem.Node
	LocalAddr  netem.Addr
	LocalPort  uint16
	RemoteAddr netem.Addr
	RemotePort uint16
	IsClient   bool
	Config     Config
}

// NewConn constructs a connection. Clients start the handshake with
// Start; servers wait for a SYN via HandleSegment.
func NewConn(p ConnParams) *Conn {
	cfg, def := p.Config, DefaultConfig()
	if cfg.InitialRcvWnd == 0 {
		cfg.InitialRcvWnd = def.InitialRcvWnd
	}
	if cfg.MaxRcvWnd == 0 {
		cfg.MaxRcvWnd = def.MaxRcvWnd
	}
	newCC := cfg.NewCC
	if newCC == nil {
		newCC = func(mss int) cc.CongestionController { return cc.NewCubic(mss) }
	}
	c := &Conn{
		sched:      p.Sched,
		cfg:        cfg,
		transmit:   p.Transmit,
		isClient:   p.IsClient,
		node:       p.Node,
		pool:       poolOf(p.Node),
		localAddr:  p.LocalAddr,
		localPort:  p.LocalPort,
		remoteAddr: p.RemoteAddr,
		remotePort: p.RemotePort,
		ccc:        newCC(MSS),
		pacer:      cc.Pacer{Enabled: cfg.EnablePacing},
		rcvWnd:     cfg.InitialRcvWnd,
		peerWnd:    cfg.InitialRcvWnd,
		StartAt:    p.Sched.Now(),
		obs:        newTCPObs(p.Node),
	}
	if c.pool != nil {
		c.inflight = c.pool.getRing()
	} else {
		c.inflight = new(sim.Ring[txRecord])
	}
	c.rtt = cc.NewRTTEstimator(c.ccc)
	// How many TLS bytes will the peer send before application data?
	if p.IsClient {
		switch cfg.TLSRounds {
		case 1:
			c.tlsRecvTotal = tlsServerFlight
		case 2:
			c.tlsRecvTotal = tlsServerFlight + tlsServerFinish12
		}
	} else {
		switch cfg.TLSRounds {
		case 1:
			c.tlsRecvTotal = tlsClientHello + tlsClientFinish13
		case 2:
			c.tlsRecvTotal = tlsClientHello + tlsClientFlight12
		}
	}
	return c
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Config returns the connection's configuration with the defaults
// NewConn filled in.
func (c *Conn) Config() Config { return c.cfg }

// Ready reports whether the connection is usable for application data.
func (c *Conn) Ready() bool { return c.tlsReady }

// SetupTime returns the connection + TLS establishment duration, valid
// once Ready.
func (c *Conn) SetupTime() time.Duration { return c.ReadyAt.Sub(c.StartAt) }

// Start begins the client handshake.
func (c *Conn) Start() {
	if c.state != StateIdle || !c.isClient {
		return
	}
	c.state = StateSYNSent
	c.sendSYN()
	if c.cfg.FastOpen {
		c.tcpEstablish()
	}
}

func (c *Conn) sendSYN() {
	flags := FlagSYN
	if !c.isClient {
		flags |= FlagACK
	}
	seg := c.newSegment()
	seg.Flags, seg.Wnd = flags, c.rcvWnd
	c.send(seg)
	backoff := time.Second << uint(min(c.rtoCount, 6))
	c.synTimer = c.sched.Rearm(c.synTimer, c.sched.Now().Add(backoff), connSynRetry, c)
}

func (c *Conn) onSynRetry() {
	needsRetry := c.state == StateSYNSent || c.state == StateSYNRcvd ||
		(c.cfg.FastOpen && c.isClient && !c.peerSynAcked && c.state == StateEstablished)
	if !needsRetry {
		return
	}
	if c.rtoCount >= 6 {
		// Handshake gives up (Linux tcp_syn_retries): frees state
		// left behind by half-open probes.
		c.teardown()
		return
	}
	c.rtoCount++
	c.Stats.RTOs++
	c.sendSYN()
}

// Write queues n application bytes for sending.
func (c *Conn) Write(n int) {
	if n <= 0 || c.finQueued || c.state == StateClosed {
		return
	}
	c.sendEnd += uint64(n)
	c.maybeSend()
}

// WriteMsg queues n bytes whose first byte carries an application
// message: the peer's OnMsg fires when that byte is delivered in order.
// This is how request/response protocols ride the byte-count payload
// model (the web server learns the object size it must answer with).
func (c *Conn) WriteMsg(n int, msg any) {
	if n <= 0 || c.finQueued || c.state == StateClosed {
		return
	}
	c.msgsOut = append(c.msgsOut, AppMsg{Off: c.sendEnd, Msg: msg})
	c.sendEnd += uint64(n)
	c.maybeSend()
}

// appendMsgsInRange appends pending outgoing messages anchored in
// [start, end) to dst, reusing its backing array.
func (c *Conn) appendMsgsInRange(dst []AppMsg, start, end uint64) []AppMsg {
	for _, m := range c.msgsOut {
		if m.Off >= start && m.Off < end {
			dst = append(dst, m)
		}
	}
	return dst
}

// pruneAckedMsgs drops outgoing messages fully below snd.una.
func (c *Conn) pruneAckedMsgs() {
	keep := c.msgsOut[:0]
	for _, m := range c.msgsOut {
		if m.Off >= c.sndUna {
			keep = append(keep, m)
		}
	}
	c.msgsOut = keep
}

// Close queues the FIN after all pending data.
func (c *Conn) Close() {
	if c.finQueued || c.state == StateClosed {
		return
	}
	c.finQueued = true
	c.maybeSend()
}

// Abort tears the connection down immediately (RST semantics).
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	seg := c.newSegment()
	seg.Flags = FlagRST
	c.send(seg)
	c.teardown()
}

func (c *Conn) teardown() {
	c.state = StateClosed
	c.rtoTimer.Stop()
	c.synTimer.Stop()
	c.ackTimer.Stop()
	c.pacingTimer.Stop()
	// A closed connection sends nothing, so its ring can serve the next
	// one; nil here makes any later push fail loudly.
	if c.pool != nil {
		c.pool.putRing(c.inflight)
		c.inflight = nil
	}
	if c.closeHook != nil {
		c.closeHook()
	}
	if c.OnClosed != nil {
		c.OnClosed()
	}
}

// queueTLS appends TLS bytes to the send stream (they precede all app
// data because TLS drives the stream first).
func (c *Conn) queueTLS(n int) {
	c.sendEnd += uint64(n)
	c.tlsSendQueued += uint64(n)
	c.maybeSend()
}

func (c *Conn) becomeReady() {
	if c.tlsReady {
		return
	}
	c.tlsReady = true
	c.ReadyAt = c.sched.Now()
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
}

// tcpEstablished transitions into StateEstablished and starts TLS.
func (c *Conn) tcpEstablish() {
	if c.state == StateEstablished {
		return
	}
	c.state = StateEstablished
	c.TCPEstablished = c.sched.Now()
	if !c.cfg.FastOpen || !c.isClient || c.peerSynAcked {
		c.synTimer.Stop()
	}
	c.rtoCount = 0
	if c.cfg.TLSRounds == 0 {
		c.becomeReady()
	} else if c.isClient {
		c.queueTLS(tlsClientHello)
	}
	// Flush anything queued before establishment (PEP legs buffer
	// relayed bytes while their own handshake is still in flight).
	c.maybeSend()
}

// tlsProgress advances the TLS state machine as in-order bytes arrive.
func (c *Conn) tlsProgress() {
	if c.tlsReady || c.cfg.TLSRounds == 0 || c.state != StateEstablished {
		return
	}
	got := c.rcvNxt
	if c.isClient {
		switch {
		case c.tlsStage == 0 && got >= tlsServerFlight:
			c.tlsStage = 1
			if c.cfg.TLSRounds == 1 {
				c.queueTLS(tlsClientFinish13)
				c.becomeReady()
			} else {
				c.queueTLS(tlsClientFlight12)
			}
		case c.tlsStage == 1 && c.cfg.TLSRounds == 2 && got >= tlsServerFlight+tlsServerFinish12:
			c.becomeReady()
		}
		return
	}
	// Server.
	switch {
	case c.tlsStage == 0 && got >= tlsClientHello:
		c.tlsStage = 1
		c.sched.After(serverProcessing, func() {
			if c.state != StateClosed {
				c.queueTLS(tlsServerFlight)
			}
		})
	case c.tlsStage == 1 && c.cfg.TLSRounds == 1 && got >= tlsClientHello+tlsClientFinish13:
		c.becomeReady()
	case c.tlsStage == 1 && c.cfg.TLSRounds == 2 && got >= tlsClientHello+tlsClientFlight12:
		c.tlsStage = 2
		c.sched.After(serverProcessing, func() {
			if c.state != StateClosed {
				c.queueTLS(tlsServerFinish12)
				c.becomeReady()
			}
		})
	}
}

// advertisedWnd returns the receive window to advertise, net of any
// relay backlog.
func (c *Conn) advertisedWnd() uint64 {
	w := c.rcvWnd
	if c.BacklogFn != nil {
		if b := uint64(c.BacklogFn()); b < w {
			w -= b
		} else {
			w = 0
		}
	}
	return w
}

// newSegment returns a zeroed segment for sending: from the network's
// freelist, or a plain allocation for a connection without a node. (On a
// network in no-recycle mode the datapath releases nothing, so the
// freelist stays empty and every draw allocates.)
func (c *Conn) newSegment() *Segment {
	if c.pool == nil {
		return &Segment{}
	}
	return c.pool.get()
}

// send transmits a segment with common fields stamped.
func (c *Conn) send(seg *Segment) {
	seg.TS = c.sched.Now()
	if seg.Flags&FlagACK != 0 || seg.Len > 0 {
		seg.Wnd = c.advertisedWnd()
	}
	c.Stats.SegmentsSent++
	var pkt *netem.Packet
	if c.node != nil {
		pkt = c.node.NewPacket()
	} else {
		pkt = &netem.Packet{}
	}
	pkt.Src = c.localAddr
	pkt.Dst = c.remoteAddr
	pkt.SrcPort = c.localPort
	pkt.DstPort = c.remotePort
	pkt.Proto = netem.ProtoTCP
	pkt.Size = seg.wireSize()
	pkt.Payload = seg
	c.transmit(pkt)
}

// outstanding returns un-acked sequence space.
func (c *Conn) outstanding() uint64 {
	if c.sndNxt < c.sndUna {
		return 0
	}
	return c.sndNxt - c.sndUna
}

// maybeSend drives the data sender. Retransmissions are gated by the
// congestion window against the pipe estimate; new data additionally by
// the peer's receive window against the sequence range (RFC 6675-style
// recovery, so losses never deadlock the sender).
func (c *Conn) maybeSend() {
	if c.state != StateEstablished {
		return
	}
	for {
		ccBudget := int64(c.ccc.Window()) - int64(c.pipe)
		if ccBudget <= 0 {
			break
		}

		// Pacing gate: before a payload-bearing segment goes out, ask the
		// pacer for clearance at full-MSS granularity (the dominant
		// segment size in bulk flows; short tails over-charge a few bytes
		// of bucket, which only ever delays, never bursts). Deferral
		// leaves all send state untouched and retries on the timer.
		if c.pacer.Enabled && (len(c.retxQueue.Spans()) > 0 || c.sndNxt < c.sendEnd) {
			d := c.pacer.DelayFor(c.sched.Now(), headerOverhead+MSS, c.ccc, &c.rtt)
			if d > 0 {
				if !c.pacingTimer.Pending() {
					c.pacingTimer = c.sched.Rearm(c.pacingTimer, c.sched.Now().Add(d), connPaceSend, c)
				}
				break
			}
		}

		// Retransmissions first.
		if spans := c.retxQueue.Spans(); len(spans) > 0 {
			r := spans[0]
			if r.End <= c.sndUna {
				c.retxQueue.TrimBelow(r.End)
				continue
			}
			start := r.Start
			if start < c.sndUna {
				start = c.sndUna
			}
			if start >= c.sendEnd {
				// The range covers only the FIN's virtual byte.
				c.retxQueue.TrimBelow(r.End)
				seg := c.newSegment()
				seg.Flags, seg.Seq, seg.Ack, seg.Retx = FlagACK|FlagFIN, c.sendEnd, c.ackValue(), true
				c.trackTx(c.sendEnd, c.sendEnd+1, true)
				c.send(seg)
				c.armRTO()
				continue
			}
			n := int(r.End - start)
			if start+uint64(n) > c.sendEnd {
				n = int(c.sendEnd - start) // keep the FIN byte separate
			}
			if n > MSS {
				n = MSS
			}
			c.retxQueue.TrimBelow(start + uint64(n)) // the head range, or what is left of it
			c.Stats.BytesRetx += uint64(n)
			fin := c.finSent && start+uint64(n) == c.sendEnd && r.End > c.sendEnd
			seg := c.newSegment()
			seg.Flags, seg.Seq, seg.Len, seg.Ack, seg.Retx = FlagACK, start, n, c.ackValue(), true
			seg.Msgs = c.appendMsgsInRange(seg.Msgs, start, start+uint64(n))
			end := start + uint64(n)
			if fin {
				seg.Flags |= FlagFIN
				end++
			}
			c.trackTx(start, end, true)
			c.send(seg)
			c.armRTO()
			continue
		}

		// Fresh data.
		if c.sndNxt < c.sendEnd {
			rwndBudget := int64(c.peerWnd) - int64(c.outstanding())
			n := int(c.sendEnd - c.sndNxt)
			if n > MSS {
				n = MSS
			}
			if int64(n) > ccBudget {
				n = int(ccBudget)
			}
			if int64(n) > rwndBudget {
				n = int(rwndBudget)
			}
			if n <= 0 {
				break
			}
			fin := false
			if c.finQueued && !c.finSent && c.sndNxt+uint64(n) == c.sendEnd {
				fin = true
				c.finSent = true
			}
			seg := c.newSegment()
			seg.Flags, seg.Seq, seg.Len, seg.Ack = FlagACK, c.sndNxt, n, c.ackValue()
			seg.Msgs = c.appendMsgsInRange(seg.Msgs, c.sndNxt, c.sndNxt+uint64(n))
			if fin {
				seg.Flags |= FlagFIN
			}
			c.trackTx(c.sndNxt, c.sndNxt+uint64(n)+boolTo64(fin), false)
			c.sndNxt += uint64(n) + boolTo64(fin)
			c.Stats.BytesSent += uint64(n)
			c.send(seg)
			c.armRTO()
			continue
		}

		// Bare FIN.
		if c.finQueued && !c.finSent && c.sndNxt == c.sendEnd {
			c.finSent = true
			seg := c.newSegment()
			seg.Flags, seg.Seq, seg.Ack = FlagACK|FlagFIN, c.sndNxt, c.ackValue()
			c.trackTx(c.sndNxt, c.sndNxt+1, false)
			c.sndNxt++
			c.send(seg)
			c.armRTO()
		}
		break
	}
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (c *Conn) trackTx(start, end uint64, retx bool) {
	c.inflight.Push(txRecord{start: start, end: end, sentAt: c.sched.Now(), retx: retx})
	c.pipe += int(end - start)
	// First transmissions only: TCP retransmits reuse sequence space, so
	// counting them again would double a rate-sampling controller's
	// in-flight estimate (QUIC retransmits under fresh packet numbers and
	// has no such aliasing).
	if !retx {
		c.ccc.OnPacketSent(c.sched.Now(), int(end-start))
	}
}

// armRTO arms the retransmission timer if it is not already pending;
// restartRTO rearms it unconditionally (on cumulative-ACK advance, per
// RFC 6298 §5.3).
func (c *Conn) armRTO() {
	if c.rtoTimer.Pending() {
		return
	}
	c.restartRTO()
}

func (c *Conn) restartRTO() {
	rto := c.rtt.PTO(0)
	if rto < minRTO {
		rto = minRTO
	}
	rto <<= uint(min(c.rtoCount, 8))
	c.rtoTimer = c.sched.Rearm(c.rtoTimer, c.sched.Now().Add(rto), connRTO, c)
}

func (c *Conn) onRTO() {
	if c.state != StateEstablished || c.outstanding() == 0 {
		return
	}
	if c.rtoCount >= maxRTOs {
		// The peer is gone (its RST was lost, or it never answers):
		// give up, like the handshake does after its retries.
		c.teardown()
		return
	}
	c.rtoCount++
	c.Stats.RTOs++
	if c.obs != nil {
		c.obs.rtos.Inc()
		c.obs.tr.Emit(c.sched.Now(), obs.KindRTO, c.obs.subj, int64(c.rtoCount), 0)
	}
	// Timeout: everything in flight is presumed lost. Collapse the pipe
	// and requeue the un-SACKed parts of the outstanding window.
	c.inflight.Reset()
	c.candidates = c.candidates[:0]
	c.pipe = 0
	start := c.sndUna
	for _, b := range c.sacked.Spans() {
		if b.End <= start {
			continue
		}
		if b.Start > start {
			hole := b.Start
			if hole > c.sndNxt {
				hole = c.sndNxt
			}
			c.retxQueue.Insert(start, hole)
		}
		start = b.End
	}
	if start < c.sndNxt {
		c.retxQueue.Insert(start, c.sndNxt)
	}
	c.ccc.OnCongestionEvent(c.sched.Now(), c.sched.Now())
	c.maybeSend()
	c.armRTO()
}

// ackValue returns the cumulative ack we currently owe the peer.
func (c *Conn) ackValue() uint64 { return c.rcvNxt }

// HandleSegment ingests a packet addressed to this connection.
func (c *Conn) HandleSegment(pkt *netem.Packet) {
	seg, ok := pkt.Payload.(*Segment)
	if !ok || c.state == StateClosed {
		return
	}
	now := c.sched.Now()
	c.Stats.SegmentsRecv++

	if seg.Flags&FlagRST != 0 {
		c.teardown()
		return
	}

	// Handshake transitions.
	switch {
	case seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0:
		// Passive open: answer SYN-ACK.
		if c.state == StateIdle || c.state == StateSYNRcvd {
			c.state = StateSYNRcvd
			c.peerWnd = seg.Wnd
			c.sendSYN()
		}
		return
	case seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK != 0:
		// Active side: SYN-ACK completes our handshake. A fast-open
		// connection is already established locally but must still
		// acknowledge so the passive side leaves SYN-RCVD.
		if c.state == StateSYNSent || (c.cfg.FastOpen && c.isClient && !c.peerSynAcked) {
			c.peerSynAcked = true
			c.synTimer.Stop()
			c.peerWnd = seg.Wnd
			rep := c.newSegment()
			rep.Flags, rep.Ack, rep.Wnd = FlagACK, c.ackValue(), c.rcvWnd
			c.send(rep)
			c.tcpEstablish()
		}
		return
	}
	if c.state == StateSYNRcvd && seg.Flags&FlagACK != 0 {
		c.tcpEstablish()
		// Fall through: the ACK may carry data (TLS client hello rides
		// close behind).
	}
	if c.state != StateEstablished {
		return
	}

	if seg.Flags&FlagACK != 0 && seg.Ack > c.sndNxt {
		// An ACK for data never sent: answer with an ACK and drop the
		// segment (RFC 9293 §3.10.7.4).
		c.sendAck()
		return
	}
	if seg.Flags&FlagACK != 0 || seg.Len > 0 {
		c.peerWnd = seg.Wnd
	}

	// Sender-side processing of the ACK/SACK information.
	c.processAck(seg, now)

	// Receiver-side processing of payload.
	if seg.Len > 0 || seg.Flags&FlagFIN != 0 {
		c.processData(seg)
	}

	c.maybeSend()
}

func (c *Conn) processAck(seg *Segment, now sim.Time) {
	if seg.Flags&FlagACK == 0 {
		return
	}
	if seg.Echo != 0 {
		c.rtt.UpdateAt(now, now.Sub(seg.Echo), 0)
	}
	if seg.Ack > c.sndUna {
		c.sndUna = seg.Ack
		c.rtoCount = 0
		c.pruneAckedMsgs()
		c.restartRTO()
		if c.OnSendProgress != nil {
			c.OnSendProgress()
		}
	}
	// Only blocks ending in (sndUna, sndNxt] carry news; one past sndNxt
	// would count bytes never sent as delivered (Linux's
	// tcp_is_sackblock_valid).
	maxD := seg.Ack
	for _, b := range seg.Sack {
		if c.sackValid(b) {
			c.sacked.Insert(b.Start, b.End)
			maxD = max(maxD, b.End)
		}
	}
	c.sacked.TrimBelow(c.sndUna)
	if c.finSent && c.sndUna >= c.sendEnd+1 && !c.finAcked {
		c.finAcked = true
		c.maybeFinish()
	}
	if maxD > c.highestDelivered {
		c.highestDelivered = maxD
	}

	lossDelay := c.rtt.LossDelay()
	lost := c.lost[:0]

	// Drain the in-order queue up to the highest delivered byte.
	for q := c.inflight; q.Len() > 0 && q.Front().end <= c.highestDelivered; {
		if r := q.Pop(); c.delivered(r) {
			c.onRecordAcked(r, now)
		} else {
			c.candidates = append(c.candidates, r)
		}
	}

	// A candidate was not delivered when it was last scanned, and only a
	// cumulative ACK past its end or one of this ACK's blocks that
	// overlaps or touches it can change that: sacked merges touching
	// spans, and TrimBelow only shrinks it. The scoreboard is searched
	// for those alone.
	kept := c.candidates[:0]
	for _, r := range c.candidates {
		// A retransmission keeps its original sequence numbers, so the
		// sequence-overtaken rule would misfire on it instantly; only
		// the time threshold applies (RACK-style).
		seqLost := !r.retx && c.highestDelivered >= r.end+uint64(3*MSS)
		switch {
		case r.end <= c.sndUna || c.sackTouches(seg.Sack, r) && c.sacked.Covered(r.start, r.end):
			c.onRecordAcked(r, now)
		case seqLost, now.Sub(r.sentAt) >= lossDelay:
			lost = append(lost, r)
		default:
			kept = append(kept, r)
		}
	}
	c.candidates, c.lost = kept, lost

	for _, r := range lost {
		c.pipe -= int(r.end - r.start)
		c.Stats.FastRetransmits++
		if c.obs != nil {
			c.obs.fastRetx.Inc()
		}
		start := r.start
		if start < c.sndUna {
			start = c.sndUna
		}
		if start < r.end {
			c.retxQueue.Insert(start, r.end)
		}
		c.ccc.OnCongestionEvent(now, r.sentAt)
	}

	if c.outstanding() == 0 {
		c.rtoTimer.Stop()
	}
}

// delivered reports whether the peer has r's bytes: cumulatively
// acknowledged, or inside one SACKed range.
func (c *Conn) delivered(r txRecord) bool {
	return r.end <= c.sndUna || c.sacked.Covered(r.start, r.end)
}

// sackValid reports whether block b of an ACK is applied: non-empty and
// ending in (sndUna, sndNxt]. A block reaching past sndNxt reports bytes
// never sent; one ending at or below sndUna says nothing new.
func (c *Conn) sackValid(b SackBlock) bool {
	return b.Start < b.End && b.End > c.sndUna && b.End <= c.sndNxt
}

// sackTouches reports whether a valid block of sack overlaps or touches r.
func (c *Conn) sackTouches(sack []SackBlock, r txRecord) bool {
	for _, b := range sack {
		if b.Start <= r.end && b.End >= r.start && c.sackValid(b) {
			return true
		}
	}
	return false
}

func (c *Conn) onRecordAcked(r txRecord, now sim.Time) {
	c.pipe -= int(r.end - r.start)
	c.ccc.OnPacketAcked(now, int(r.end-r.start), &c.rtt)
	if c.obs != nil {
		c.obs.cwnd.Observe(int64(c.ccc.Window()))
	}
}

func (c *Conn) processData(seg *Segment) {
	for _, m := range seg.Msgs {
		if m.Off < c.rcvNxt {
			continue // delivered already
		}
		// The first copy of a message wins.
		if i, dup := slices.BinarySearchFunc(c.msgsIn, m.Off, cmpMsgOff); !dup {
			c.msgsIn = slices.Insert(c.msgsIn, i, m)
		}
	}
	if seg.Flags&FlagFIN != 0 {
		c.peerFinSeq = seg.Seq + uint64(seg.Len)
		c.peerFinSeen = true
	}
	inOrder := seg.Seq <= c.rcvNxt
	if seg.Len > 0 {
		c.recvRanges.Insert(seg.Seq, seg.Seq+uint64(seg.Len))
	}
	prev := c.rcvNxt
	c.rcvNxt = c.recvRanges.ContiguousFrom(c.rcvNxt)
	newBytes := c.rcvNxt - prev

	finNow := false
	if c.peerFinSeen && c.rcvNxt == c.peerFinSeq && !c.finDelivered {
		c.finDelivered = true
		c.rcvNxt++ // FIN consumes one sequence number
		finNow = true
		c.maybeFinish()
	}

	if newBytes > 0 || finNow {
		c.deliverSpan(prev, prev+newBytes, finNow)
		c.tlsProgress()
		c.autotune(newBytes)
	}

	// ACK policy: immediate on out-of-order or every second segment,
	// else delayed.
	c.segsSinceAck++
	c.lastRecvTS = seg.TS
	c.lastRecvTSRetx = seg.Retx
	if !inOrder || c.segsSinceAck >= 2 || finNow {
		c.sendAck()
	} else if !c.ackTimer.Pending() {
		c.ackTimer = c.sched.Rearm(c.ackTimer, c.sched.Now().Add(delayedAck), connSendAck, c)
	}
}

// deliverApp forwards the application portion of newly in-order bytes
// [from, to) to OnData, excluding the TLS prefix.
func (c *Conn) deliverApp(from, to uint64, fin bool) {
	c.Stats.BytesDelivered += to - from
	appFrom := from
	if appFrom < c.tlsRecvTotal {
		appFrom = c.tlsRecvTotal
	}
	n := 0
	if to > appFrom {
		n = int(to - appFrom)
	}
	if (n > 0 || fin) && c.OnData != nil {
		c.OnData(n, fin)
	}
}

func cmpMsgOff(m AppMsg, off uint64) int { return cmp.Compare(m.Off, off) }

// deliverSpan delivers the newly in-order bytes [from, to) interleaved
// with any application messages anchored inside: bytes before an anchor
// first, then the message, then the rest. The precise interleaving lets
// relays (PEPs) re-anchor messages on their second leg exactly.
func (c *Conn) deliverSpan(from, to uint64, fin bool) {
	for len(c.msgsIn) > 0 && c.msgsIn[0].Off < to {
		a, msg := c.msgsIn[0].Off, c.msgsIn[0].Msg
		c.msgsIn = slices.Delete(c.msgsIn, 0, 1)
		if a > from {
			c.deliverApp(from, a, false)
			from = a
		}
		if c.OnMsg != nil {
			c.OnMsg(msg)
		}
	}
	c.deliverApp(from, to, fin)
}

func (c *Conn) autotune(newBytes uint64) {
	if c.cfg.MaxRcvWnd <= c.cfg.InitialRcvWnd {
		return
	}
	c.bytesSinceTune += newBytes
	if c.bytesSinceTune >= c.rcvWnd/2 {
		c.bytesSinceTune = 0
		if c.rcvWnd*2 <= c.cfg.MaxRcvWnd {
			c.rcvWnd *= 2
		} else {
			c.rcvWnd = c.cfg.MaxRcvWnd
		}
	}
}

// sendAck acknowledges rcvNxt with up to 8 SACK blocks, the lowest-lying
// first, nearest the cumulative ACK. Wire TCP rotates 3 most-recent blocks
// and lets the sender accumulate coverage over many ACKs; reporting the
// lowest-lying blocks directly converges to the same sender knowledge with
// far fewer ACKs, which is what matters for the emulation.
func (c *Conn) sendAck() {
	if c.state != StateEstablished {
		return
	}
	c.segsSinceAck = 0
	c.ackTimer.Stop()
	seg := c.newSegment()
	seg.Flags, seg.Ack, seg.Wnd = FlagACK, c.ackValue(), c.advertisedWnd()
	blocks := c.recvRanges.Spans()
	seg.Sack = append(seg.Sack[:0], blocks[:min(8, len(blocks))]...)
	if !c.lastRecvTSRetx {
		seg.Echo = c.lastRecvTS
	}
	c.send(seg)
}

// maybeFinish schedules teardown once both directions completed,
// lingering briefly (TIME_WAIT-style) so a retransmitted peer FIN can
// still be acknowledged.
func (c *Conn) maybeFinish() {
	if !c.finAcked || !c.finDelivered {
		return
	}
	c.sched.AfterFunc(3*time.Second, connTimeWait, c)
}

func (c *Conn) onTimeWait() {
	if c.state == StateEstablished {
		c.teardown()
	}
}

// Completed reports whether both directions finished cleanly (our FIN
// acknowledged and the peer's FIN delivered).
func (c *Conn) Completed() bool { return c.finAcked && c.finDelivered }

// Backlog returns bytes accepted for sending but not yet put on the
// wire — a relay's measure of how far its onward leg lags. In-flight
// bytes are excluded: they are progressing at the path's natural BDP.
func (c *Conn) Backlog() int {
	if c.sendEnd <= c.sndNxt {
		return 0
	}
	return int(c.sendEnd - c.sndNxt)
}

// ForceAck emits an immediate window-update ACK (relays call this as
// their backlog drains so a window-blocked peer resumes).
func (c *Conn) ForceAck() {
	if c.state == StateEstablished {
		c.sendAck()
	}
}

// Debug accessors used by tests and diagnostics.

// DebugUna returns snd.una.
func (c *Conn) DebugUna() uint64 { return c.sndUna }

// Scheduler trampolines: package-level sim.EventFunc adapters so the
// per-segment timers (RTO re-arm, delayed ACK) and the rarer handshake
// and TIME_WAIT timers schedule without allocating a bound-method
// closure per arming.
func connRTO(arg any)      { arg.(*Conn).onRTO() }
func connSendAck(arg any)  { arg.(*Conn).sendAck() }
func connSynRetry(arg any) { arg.(*Conn).onSynRetry() }
func connTimeWait(arg any) { arg.(*Conn).onTimeWait() }
func connPaceSend(arg any) { arg.(*Conn).maybeSend() }
