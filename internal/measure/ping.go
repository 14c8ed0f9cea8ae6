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

// probeObs caches the prober's metric handles; nil when unobserved.
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
	// echoFree recycles echo records: one is drawn per echo and goes
	// back once its outcome has been read, so a campaign allocates as
	// many as it ever has in flight at once.
	echoFree sim.Freelist[echoWait]
	// errCB receives quoted ICMP errors (time-exceeded, unreachable)
	// for the single outstanding TTL-limited probe.
	errCB func(pkt *netem.Packet)
	// tcpReply receives TCP answers to raw PEP-detection probes.
	tcpReply func(pkt *netem.Packet)

	obs *probeObs
}

// newProbeObs returns the probe metrics (echoes sent/lost, RTT
// histogram) and probe-loss trace subject of a prober on node, or nil
// when node's network is not observed.
func newProbeObs(node *netem.Node) *probeObs {
	s := node.Network().Sink()
	if s == nil {
		return nil
	}
	reg, tr := s.Registry(), s.Tracer()
	return &probeObs{
		tr:   tr,
		subj: tr.Subject("probe/" + node.Name()),
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
// timeout allocates no closure. A reply stops the timer before its record
// is recycled, and the handle's generation keeps a stale stop from
// touching the record's next timer, so an expiring record is still the
// pending echo it was armed for.
func echoTimeout(arg any) {
	w := arg.(*echoWait)
	p := w.p
	delete(p.echoCBs, w.seq)
	if o := p.obs; o != nil {
		o.lost.Inc()
		o.tr.Emit(p.sched.Now(), obs.KindProbeLost, o.subj, int64(w.seq), 0)
	}
	p.release(w)(0, false)
}

// release returns w to the freelist and hands back its callback for the
// caller to run: the record is free before the callback sends the next
// echo, which may draw it again.
func (p *Prober) release(w *echoWait) func(rtt time.Duration, ok bool) {
	cb := w.cb
	*w = echoWait{p: p}
	p.echoFree.Put(w)
	return cb
}

// NewProber binds the prober to the node's ICMP traffic. It reports to
// the node's network sink when the network is observed.
func NewProber(node *netem.Node) *Prober {
	p := &Prober{
		node:    node,
		sched:   node.Scheduler(),
		echoCBs: make(map[int]*echoWait),
		icmpID:  100,
		obs:     newProbeObs(node),
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
			p.release(w)(rtt, true)
		}
	case netem.ICMPTimeExceeded, netem.ICMPDestUnreachable:
		if p.errCB != nil {
			p.errCB(pkt)
		}
	}
}

// PingTimeout is how long an echo waits before it counts as lost.
const PingTimeout = 3 * time.Second

// echoBytes is the size of an echo request, ping's default 56-byte
// payload and its 8-byte ICMP header.
const echoBytes = 64

// Echo sends one ICMP echo request; cb runs exactly once with the RTT or
// ok=false on timeout.
func (p *Prober) Echo(dst netem.Addr, cb func(rtt time.Duration, ok bool)) {
	seq := p.nextSeq
	p.nextSeq++
	if p.obs != nil {
		p.obs.sent.Inc()
	}
	w := p.echoFree.Get()
	if w == nil {
		w = &echoWait{p: p}
	}
	w.seq, w.sentAt, w.cb = seq, p.sched.Now(), cb
	w.timeout = p.sched.AfterFunc(PingTimeout, echoTimeout, w)
	p.echoCBs[seq] = w
	nw := p.node.Network()
	pkt := nw.NewPacket()
	pkt.Dst = dst
	pkt.SrcPort = p.icmpID // fixed ICMP identifier, like real ping: one NAT mapping per prober
	pkt.Proto = netem.ProtoICMP
	pkt.Size = echoBytes
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

// pingRun drives one round of Monitor to one target: MonitorProbes
// echoes to dst, each sent when the one before it lands, then done with
// the results. start reruns it.
type pingRun struct {
	p       *Prober
	dst     netem.Addr
	at      sim.Time // when the echo in flight was sent
	results []PingResult
	done    func([]PingResult)
	echoed  func(rtt time.Duration, ok bool) // r.onEcho, bound once
	busy    bool
}

func (p *Prober) newPingRun(dst netem.Addr, done func([]PingResult)) *pingRun {
	r := &pingRun{p: p, dst: dst, results: make([]PingResult, 0, MonitorProbes), done: done}
	r.echoed = r.onEcho
	return r
}

func (r *pingRun) start() {
	r.results = r.results[:0]
	r.busy = true
	r.next()
}

func (r *pingRun) next() {
	if len(r.results) >= MonitorProbes {
		r.done(r.results)
		r.busy = false
		return
	}
	r.at = r.p.sched.Now()
	r.p.Echo(r.dst, r.echoed)
}

func (r *pingRun) onEcho(rtt time.Duration, ok bool) {
	r.results = append(r.results, PingResult{Target: r.dst, At: r.at, RTT: rtt, OK: ok})
	// Standard ping spaces probes by 1s; a reply arriving earlier
	// advances immediately in flood-less fashion.
	r.next()
}

// MonitorProbes is how many pings Monitor sends each target per round,
// the paper's 3.
const MonitorProbes = 3

// Monitor runs the paper's anchor campaign: every interval, ping each
// target MonitorProbes times, delivering each result to onResult. It
// stops when the scheduler passes `until`. A non-positive interval would
// re-arm the round at the same instant forever, so it panics instead.
//
// Each target's run is reused round after round. A round that finds it
// still busy — its echoes outlast the interval on a lossy path — starts a
// fresh run beside it, so overlapping rounds interleave as separate ping
// runs would.
func (p *Prober) Monitor(targets []netem.Addr, interval time.Duration, until sim.Time, onResult func(PingResult)) {
	if interval <= 0 {
		panic(fmt.Sprintf("measure: Monitor interval %v, must be positive", interval))
	}
	deliver := func(rs []PingResult) {
		for _, r := range rs {
			onResult(r)
		}
	}
	runs := make([]*pingRun, len(targets))
	for i, dst := range targets {
		runs[i] = p.newPingRun(dst, deliver)
	}
	var round func()
	round = func() {
		if p.sched.Now() >= until {
			return
		}
		for _, r := range runs {
			if r.busy {
				r = p.newPingRun(r.dst, deliver)
			}
			r.start()
		}
		p.sched.After(interval, round)
	}
	round()
}
