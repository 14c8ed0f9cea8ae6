// Package measure implements the paper's measurement tools over the
// emulated network: an ICMP prober (ping), traceroute, a Tracebox-style
// middlebox detector with PEP detection, an Ookla-style parallel-TCP
// speedtest, and the QUIC bulk (HTTP/3-like) and low-rate message
// workloads with capture hooks.
package measure

import (
	"fmt"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
	"starlinkperf/internal/sim"
)

// probeObs caches the prober's metric handles; nil when disabled.
type probeObs struct {
	tr   *obs.Tracer
	subj obs.Subj
	sent *obs.Counter
	lost *obs.Counter
	rtt  *obs.Histogram
}

// Prober owns a node's ICMP handler and demultiplexes echo replies and
// quoted errors to the measurement in progress. One Prober per node.
type Prober struct {
	node    *netem.Node
	sched   *sim.Scheduler
	nextSeq int
	icmpID  uint16
	echoCBs map[int]*echoWait
	// errCB receives quoted ICMP errors (time-exceeded, unreachable)
	// for the single outstanding TTL-limited probe.
	errCB func(pkt *netem.Packet)
	// tcpReply receives TCP answers to raw PEP-detection probes.
	tcpReply func(pkt *netem.Packet)

	obs *probeObs
}

// Observe attaches probe metrics (echoes sent/lost, RTT histogram) and
// probe-loss trace events to the prober. A nil sink is a no-op.
func (p *Prober) Observe(s *obs.Sink) {
	if s == nil {
		return
	}
	reg, tr := s.Registry(), s.Tracer()
	p.obs = &probeObs{
		tr:   tr,
		subj: tr.Subject("probe/" + p.node.Name()),
		sent: reg.Counter("probe.echo_sent"),
		lost: reg.Counter("probe.echo_lost"),
		rtt:  reg.Histogram("probe.rtt_ns", obs.DurationBounds()),
	}
}

type echoWait struct {
	p       *Prober
	seq     int
	sentAt  sim.Time
	cb      func(rtt time.Duration, ok bool)
	timeout sim.TimerHandle
}

// echoTimeout is the sim.EventFunc trampoline for echo expiry; the
// per-echo state rides in the echoWait record itself, so arming the
// timeout allocates no closure.
func echoTimeout(arg any) {
	w := arg.(*echoWait)
	if _, pending := w.p.echoCBs[w.seq]; pending {
		delete(w.p.echoCBs, w.seq)
		if o := w.p.obs; o != nil {
			o.lost.Inc()
			o.tr.Emit(w.p.sched.Now(), obs.KindProbeLost, o.subj, int64(w.seq), 0)
		}
		w.cb(0, false)
	}
}

// NewProber binds the prober to the node's ICMP traffic.
func NewProber(node *netem.Node) *Prober {
	p := &Prober{
		node:    node,
		sched:   node.Scheduler(),
		echoCBs: make(map[int]*echoWait),
		icmpID:  100,
	}
	node.Bind(netem.ProtoICMP, 0, p.receive)
	return p
}

func (p *Prober) receive(pkt *netem.Packet) {
	icmp, ok := pkt.Payload.(*netem.ICMP)
	if !ok {
		return
	}
	switch icmp.Type {
	case netem.ICMPEchoReply:
		if w, ok := p.echoCBs[icmp.Seq]; ok {
			delete(p.echoCBs, icmp.Seq)
			w.timeout.Stop()
			rtt := p.sched.Now().Sub(w.sentAt)
			if p.obs != nil {
				p.obs.rtt.Observe(int64(rtt))
			}
			w.cb(rtt, true)
		}
	case netem.ICMPTimeExceeded, netem.ICMPDestUnreachable:
		if p.errCB != nil {
			p.errCB(pkt)
		}
	}
}

// PingTimeout is how long an echo waits before it counts as lost.
const PingTimeout = 3 * time.Second

// Echo sends one ICMP echo request; cb runs exactly once with the RTT or
// ok=false on timeout.
func (p *Prober) Echo(dst netem.Addr, size int, cb func(rtt time.Duration, ok bool)) {
	seq := p.nextSeq
	p.nextSeq++
	if p.obs != nil {
		p.obs.sent.Inc()
	}
	w := &echoWait{p: p, seq: seq, sentAt: p.sched.Now(), cb: cb}
	w.timeout = p.sched.AfterFunc(PingTimeout, echoTimeout, w)
	p.echoCBs[seq] = w
	nw := p.node.Network()
	pkt := nw.NewPacket()
	pkt.Dst = dst
	pkt.SrcPort = p.icmpID // fixed ICMP identifier, like real ping: one NAT mapping per prober
	pkt.Proto = netem.ProtoICMP
	pkt.Size = size
	body := nw.NewICMP()
	body.Type, body.Seq = netem.ICMPEchoRequest, seq
	pkt.Payload = body
	p.node.Send(pkt)
}

// PingResult is one ping measurement.
type PingResult struct {
	Target netem.Addr
	At     sim.Time
	RTT    time.Duration
	OK     bool
}

// Ping sends count echoes back-to-back (like `ping -c count`) and calls
// done with all results once the last reply or timeout lands.
func (p *Prober) Ping(dst netem.Addr, count int, done func([]PingResult)) {
	results := make([]PingResult, 0, count)
	var next func(i int)
	next = func(i int) {
		if i >= count {
			done(results)
			return
		}
		at := p.sched.Now()
		p.Echo(dst, 64, func(rtt time.Duration, ok bool) {
			results = append(results, PingResult{Target: dst, At: at, RTT: rtt, OK: ok})
			// Standard ping spaces probes by 1s; a reply arriving
			// earlier advances immediately in flood-less fashion.
			next(i + 1)
		})
	}
	next(0)
}

// Monitor runs the paper's anchor campaign: every interval, ping each
// target probes times, delivering each result to onResult. It stops when
// the scheduler passes `until`. A non-positive interval would re-arm the
// round at the same instant forever, so it panics instead.
func (p *Prober) Monitor(targets []netem.Addr, interval time.Duration, probes int, until sim.Time, onResult func(PingResult)) {
	if interval <= 0 {
		panic(fmt.Sprintf("measure: Monitor interval %v, must be positive", interval))
	}
	var round func()
	round = func() {
		if p.sched.Now() >= until {
			return
		}
		for _, dst := range targets {
			dst := dst
			p.Ping(dst, probes, func(rs []PingResult) {
				for _, r := range rs {
					onResult(r)
				}
			})
		}
		p.sched.After(interval, round)
	}
	round()
}
