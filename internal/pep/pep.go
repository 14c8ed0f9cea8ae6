// Package pep implements a transparent TCP split-connection Performance
// Enhancing Proxy (RFC 3135) as a netem device.
//
// SatCom operators deploy PEPs at the teleport to hide the geostationary
// path's ~600 ms RTT from TCP: the proxy answers the client's SYN locally
// (spoofing the server), opens its own leg to the real server (spoofing
// the client), and relays bytes with local acknowledgements, decoupling
// the two congestion/flow-control loops. TLS bytes relay through
// untouched — end-to-end security is preserved, and so is its latency
// cost, which is why the paper's SatCom web setup times stay high even
// with a PEP.
//
// QUIC cannot be split: its transport layer is encrypted and
// authenticated, so the proxy forwards UDP unmodified. This asymmetry is
// the paper's motivation for measuring with QUIC.
package pep

import (
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/tcpsim"
)

// pepObs caches the proxy's metric handles; nil when unobserved.
type pepObs struct {
	tr      *obs.Tracer
	subj    obs.Subj
	splits  *obs.Counter
	relayed *obs.Counter
	flows   *obs.Gauge
}

type legRole uint8

const (
	toClient legRole = iota
	toServer
)

type flowKey struct {
	srcAddr netem.Addr
	srcPort uint16
	dstAddr netem.Addr
	dstPort uint16
}

type splitFlow struct {
	clientLeg *tcpsim.Conn // spoofs the server towards the client
	serverLeg *tcpsim.Conn // spoofs the client towards the server
}

// maxRelayBacklog is the relay buffer a proxy holds per flow direction.
const maxRelayBacklog = 8 << 20

type legRef struct {
	flow *splitFlow
	role legRole
}

// Proxy is the PEP device on the node all client↔server traffic
// transits (the teleport); Attach builds one there.
type Proxy struct {
	// Config is used for both legs (TLSRounds is forced to 0: the PEP
	// splits TCP, never TLS).
	Config tcpsim.Config
	// ClientLegCC and ServerLegCC override the congestion controller of
	// the leg toward the client resp. the server. Satellite PEPs run a
	// provisioned fixed window on the space-segment leg.
	ClientLegCC func(mss int) cc.CongestionController
	ServerLegCC func(mss int) cc.CongestionController

	// maxBacklog bounds the relay buffer per flow direction; beyond it
	// the receiving leg's advertised window closes (backpressure). It is
	// maxRelayBacklog; in-package tests lower it.
	maxBacklog int

	legs map[flowKey]legRef
	obs  *pepObs

	// Splits counts intercepted connections; Relayed counts relayed
	// payload bytes.
	Splits  uint64
	Relayed uint64
}

// Attach builds a PEP with the given leg configuration and attaches it
// to node as a device. On an observed network the proxy registers its
// metrics and splice trace subject ("pep/<node>") at once, so a proxy
// that never splits still reports zeros; its legs report as any TCP
// connection on the network does.
func Attach(node *netem.Node, cfg tcpsim.Config) *Proxy {
	cfg.TLSRounds = 0
	p := &Proxy{Config: cfg, maxBacklog: maxRelayBacklog, legs: make(map[flowKey]legRef)}
	if s := node.Network().Sink(); s != nil {
		reg, tr := s.Registry(), s.Tracer()
		p.obs = &pepObs{
			tr:      tr,
			subj:    tr.Subject("pep/" + node.Name()),
			splits:  reg.Counter("pep.splits"),
			relayed: reg.Counter("pep.relayed_bytes"),
			flows:   reg.Gauge("pep.active_flows"),
		}
	}
	node.AttachDevice(p)
	return p
}

func keyOf(pkt *netem.Packet) flowKey {
	return flowKey{srcAddr: pkt.Src, srcPort: pkt.SrcPort, dstAddr: pkt.Dst, dstPort: pkt.DstPort}
}

// Process implements netem.Device.
func (p *Proxy) Process(node *netem.Node, pkt *netem.Packet) bool {
	if pkt.Proto != netem.ProtoTCP {
		return true // QUIC/UDP/ICMP pass through: encrypted transports cannot be split
	}
	key := keyOf(pkt)
	if ref, ok := p.legs[key]; ok {
		switch ref.role {
		case toClient:
			ref.flow.clientLeg.HandleSegment(pkt)
		case toServer:
			ref.flow.serverLeg.HandleSegment(pkt)
		}
		return false
	}
	seg, ok := pkt.Payload.(*tcpsim.Segment)
	if !ok {
		return true
	}
	if seg.Flags&tcpsim.FlagSYN == 0 || seg.Flags&tcpsim.FlagACK != 0 {
		return true // mid-flow segment of an unknown flow: not ours
	}
	p.split(node, pkt, key)
	return false
}

// split sets up the two legs for a newly intercepted connection and
// replays the SYN into the client leg.
func (p *Proxy) split(node *netem.Node, syn *netem.Packet, key flowKey) {
	p.Splits++
	if p.obs != nil {
		p.obs.splits.Inc()
		p.obs.tr.Emit(node.Scheduler().Now(), obs.KindSplice, p.obs.subj, int64(syn.SrcPort), int64(syn.DstPort))
	}
	f := &splitFlow{}
	cliCfg, srvCfg := p.Config, p.Config
	if p.ClientLegCC != nil {
		cliCfg.NewCC = p.ClientLegCC
	}
	if p.ServerLegCC != nil {
		srvCfg.NewCC = p.ServerLegCC
	}
	f.clientLeg = tcpsim.NewConn(tcpsim.ConnParams{
		Sched:      node.Scheduler(),
		Transmit:   node.Send,
		Node:       node,
		LocalAddr:  syn.Dst, // spoof the server
		LocalPort:  syn.DstPort,
		RemoteAddr: syn.Src,
		RemotePort: syn.SrcPort,
		IsClient:   false,
		Config:     cliCfg,
	})
	f.serverLeg = tcpsim.NewConn(tcpsim.ConnParams{
		Sched:      node.Scheduler(),
		Transmit:   node.Send,
		Node:       node,
		LocalAddr:  syn.Src, // spoof the client
		LocalPort:  syn.SrcPort,
		RemoteAddr: syn.Dst,
		RemotePort: syn.DstPort,
		IsClient:   true,
		Config:     srvCfg,
	})

	// Backpressure: each leg's advertised window shrinks by the bytes
	// its relay twin has not yet pushed out, and window updates flow as
	// the twin drains. The window to close is the leg's own largest one,
	// after tcpsim's defaults: a zero MaxRcvWnd is 6 MiB there, not 0.
	maxBacklog := p.maxBacklog
	cliWnd, srvWnd := int(f.clientLeg.Config().MaxRcvWnd), int(f.serverLeg.Config().MaxRcvWnd)
	f.clientLeg.BacklogFn = func() int { return scaleBacklog(f.serverLeg.Backlog(), maxBacklog, cliWnd) }
	f.serverLeg.BacklogFn = func() int { return scaleBacklog(f.clientLeg.Backlog(), maxBacklog, srvWnd) }
	// Window updates as the twin drains, throttled so the updates do
	// not saturate thin return paths.
	sched := node.Scheduler()
	f.serverLeg.OnSendProgress = throttled(sched, 40*time.Millisecond, f.clientLeg.ForceAck)
	f.clientLeg.OnSendProgress = throttled(sched, 40*time.Millisecond, f.serverLeg.ForceAck)

	// Relay payload, application messages and FINs between the legs.
	relay := func(dst *tcpsim.Conn) (func(int, bool), func(any)) {
		var pending any
		hasMsg := false
		onMsg := func(m any) { pending, hasMsg = m, true }
		onData := func(n int, fin bool) {
			p.Relayed += uint64(n)
			if p.obs != nil {
				p.obs.relayed.Add(uint64(n))
			}
			if n > 0 {
				if hasMsg {
					dst.WriteMsg(n, pending)
					hasMsg = false
				} else {
					dst.Write(n)
				}
			}
			if fin {
				dst.Close()
			}
		}
		return onData, onMsg
	}
	f.clientLeg.OnData, f.clientLeg.OnMsg = relay(f.serverLeg)
	f.serverLeg.OnData, f.serverLeg.OnMsg = relay(f.clientLeg)
	// On teardown: a leg that finished cleanly just releases its demux
	// entry; an aborted leg (RST, error) propagates the abort so the
	// other side does not hang.
	f.clientLeg.OnClosed = func() {
		delete(p.legs, key)
		if p.obs != nil {
			p.obs.flows.Set(int64(len(p.legs) / 2))
		}
		if !f.clientLeg.Completed() && f.serverLeg.State() != tcpsim.StateClosed {
			f.serverLeg.Abort()
		}
	}
	f.serverLeg.OnClosed = func() {
		delete(p.legs, key.reverse())
		if p.obs != nil {
			p.obs.flows.Set(int64(len(p.legs) / 2))
		}
		if !f.serverLeg.Completed() && f.clientLeg.State() != tcpsim.StateClosed {
			f.clientLeg.Abort()
		}
	}

	p.legs[key] = legRef{flow: f, role: toClient}
	p.legs[key.reverse()] = legRef{flow: f, role: toServer}
	if p.obs != nil {
		p.obs.flows.Set(int64(len(p.legs) / 2))
	}

	f.serverLeg.Start()
	f.clientLeg.HandleSegment(syn)
}

func (k flowKey) reverse() flowKey {
	return flowKey{srcAddr: k.dstAddr, srcPort: k.dstPort, dstAddr: k.srcAddr, dstPort: k.srcPort}
}

// throttled wraps fn so it runs at most once per interval, with a
// trailing invocation when calls arrived during the quiet period.
func throttled(sched *sim.Scheduler, interval time.Duration, fn func()) func() {
	var last sim.Time
	pending := false
	var fire func()
	fire = func() {
		pending = false
		last = sched.Now()
		fn()
	}
	return func() {
		if pending {
			return
		}
		if since := sched.Now().Sub(last); since >= interval || last == 0 {
			fire()
			return
		}
		pending = true
		sched.After(interval-sched.Now().Sub(last), fire)
	}
}

// scaleBacklog maps a relay backlog onto window reduction: no pressure
// below half the budget, then a linear close until the window shuts at
// maxBacklog of unsent bytes.
func scaleBacklog(backlog, maxBacklog, window int) int {
	half := maxBacklog / 2
	if backlog <= half {
		return 0
	}
	if backlog >= maxBacklog {
		return window
	}
	return int(int64(window) * int64(backlog-half) / int64(maxBacklog-half))
}
