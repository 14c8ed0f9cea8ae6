package measure

import (
	"fmt"
	"strconv"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/tcpsim"
)

// Hop is one traceroute step.
type Hop struct {
	TTL     int
	Addr    netem.Addr
	RTT     time.Duration
	Reached bool // destination answered (dest-unreachable / port probe)
	Timeout bool
	// Quoted is the probe's header as the responding node saw it — the
	// Tracebox evidence for middlebox rewriting — or nil without a quote.
	Quoted *QuotedHeader
}

// QuotedHeader is the header fields of a quoted probe that Tracebox
// compares with what was sent. A hop copies them at delivery, so it holds
// no packet: the error and its quote go back to the pools.
type QuotedHeader struct {
	Src, Dst         netem.Addr
	SrcPort, DstPort uint16
	Proto            netem.Proto
	Checksum         uint16
}

// probeTimeout bounds each TTL-limited probe.
const probeTimeout = 3 * time.Second

// maxTTL is the farthest hop Traceroute, Tracebox and DetectPEP probe.
const maxTTL = 24

// PEPPort is the TCP port DetectPEP sends its SYNs to: a plain web
// service on the destination.
const PEPPort = 80

// traceSrcPort is the constant source port of traceroute probes: keeping
// it fixed makes NAT mappings — and therefore checksum residues —
// comparable across hops.
const traceSrcPort = 40000

// Traceroute walks the path to dst with TTL-limited UDP probes
// (serialized, one outstanding at a time), up to maxTTL hops, and
// delivers the hop list.
func (p *Prober) Traceroute(dst netem.Addr, done func([]Hop)) {
	var hops []Hop
	basePort := uint16(33434)
	var step func(ttl int)
	step = func(ttl int) {
		if ttl > maxTTL {
			p.errCB = nil
			done(hops)
			return
		}
		sent := p.sched.Now()
		answered := false
		timeout := p.sched.After(probeTimeout, func() {
			if answered {
				return
			}
			answered = true
			p.errCB = nil
			hops = append(hops, Hop{TTL: ttl, Timeout: true})
			step(ttl + 1)
		})
		p.errCB = func(pkt *netem.Packet) {
			if answered {
				return
			}
			answered = true
			timeout.Stop()
			p.errCB = nil
			icmp := pkt.Payload.(*netem.ICMP)
			h := Hop{
				TTL:     ttl,
				Addr:    pkt.Src,
				RTT:     p.sched.Now().Sub(sent),
				Reached: icmp.Type == netem.ICMPDestUnreachable,
			}
			if q := icmp.Quoted; q != nil {
				h.Quoted = &QuotedHeader{Src: q.Src, Dst: q.Dst, SrcPort: q.SrcPort, DstPort: q.DstPort, Proto: q.Proto, Checksum: q.Checksum}
			}
			hops = append(hops, h)
			if h.Reached {
				done(hops)
				return
			}
			step(ttl + 1)
		}
		pkt := p.node.NewPacket()
		pkt.Dst = dst
		pkt.DstPort = basePort + uint16(ttl)
		pkt.SrcPort = traceSrcPort
		pkt.Proto = netem.ProtoUDP
		pkt.Size = 60
		pkt.TTL = ttl
		p.node.Send(pkt)
	}
	step(1)
}

// FieldChange describes a header modification Tracebox attributes to some
// middlebox at or before a hop.
type FieldChange struct {
	Field    string
	Original string
	Observed string
}

// TraceboxHop augments a traceroute hop with the header diff.
type TraceboxHop struct {
	Hop
	Changes []FieldChange
	// Residue is the checksum delta attributable to translations applied
	// before this hop; it is invariant across probes of the same flow,
	// so distinct non-zero residues along a path count NAT levels.
	Residue uint16
}

// Tracebox runs the middlebox detector: TTL-limited probes whose quoted
// headers are compared against what was sent (Detal et al., IMC 2013).
func (p *Prober) Tracebox(dst netem.Addr, done func([]TraceboxHop)) {
	p.Traceroute(dst, func(hops []Hop) {
		out := make([]TraceboxHop, 0, len(hops))
		for _, h := range hops {
			th := TraceboxHop{Hop: h}
			if h.Quoted != nil {
				q := h.Quoted
				origSrc := p.node.Addr()
				if q.Src != origSrc {
					th.Changes = append(th.Changes, FieldChange{
						Field: "ip.src", Original: origSrc.String(), Observed: q.Src.String(),
					})
				}
				origSport := uint16(traceSrcPort)
				if q.SrcPort != origSport {
					th.Changes = append(th.Changes, FieldChange{
						Field:    "udp.sport",
						Original: strconv.Itoa(int(origSport)),
						Observed: strconv.Itoa(int(q.SrcPort)),
					})
				}
				origSum := netem.PseudoChecksum(origSrc, q.Dst, origSport, q.DstPort, q.Proto)
				if q.Checksum != origSum {
					th.Changes = append(th.Changes, FieldChange{
						Field:    "udp.checksum",
						Original: fmt.Sprintf("%#04x", origSum),
						Observed: fmt.Sprintf("%#04x", q.Checksum),
					})
					th.Residue = checksumResidue(origSum, q.Checksum)
				}
			}
			out = append(out, th)
		}
		done(out)
	})
}

// checksumResidue returns the one's-complement difference between two
// internet checksums — the translation fingerprint, independent of the
// per-probe fields that went into the sum.
func checksumResidue(orig, observed uint16) uint16 {
	a, b := uint32(^orig), uint32(^observed)
	d := (b + 0xffff - a) % 0xffff
	if d == 0 {
		return 0xffff // changed but delta folds to zero: still a residue
	}
	return uint16(d)
}

// PEPProbe reports where, along the path, the TCP handshake terminates.
// It sends TTL-limited SYNs: a SYN-ACK arriving while the TTL is smaller
// than the hop distance of the destination reveals a split-connection
// proxy at or before that hop. The paper's finding: on Starlink the
// handshake completes only in the destination network (no PEP); on the
// SatCom access it completes at the proxy.
type PEPProbe struct {
	// SynAckAtTTL is the smallest TTL that produced a SYN-ACK.
	SynAckAtTTL int
	// PathHops is the hop distance to the destination (from traceroute).
	PathHops int
}

// ProxyDetected reports whether the handshake terminated before the
// destination.
func (r PEPProbe) ProxyDetected() bool {
	return r.SynAckAtTTL > 0 && r.SynAckAtTTL < r.PathHops
}

// DetectPEP runs the PEP probe against dst:PEPPort.
func (p *Prober) DetectPEP(dst netem.Addr, done func(PEPProbe)) {
	p.Traceroute(dst, func(hops []Hop) {
		res := PEPProbe{PathHops: len(hops)}
		srcPort := uint16(45000)
		var step func(ttl int)
		step = func(ttl int) {
			if ttl > len(hops) {
				p.errCB = nil
				p.node.Unbind(netem.ProtoTCP, srcPort)
				done(res)
				return
			}
			answered := false
			finish := func(gotSynAck bool) {
				if answered {
					return
				}
				answered = true
				p.errCB = nil
				if gotSynAck {
					res.SynAckAtTTL = ttl
					p.node.Unbind(netem.ProtoTCP, srcPort)
					done(res)
					return
				}
				step(ttl + 1)
			}
			timeout := p.sched.After(probeTimeout, func() { finish(false) })
			p.errCB = func(pkt *netem.Packet) {
				timeout.Stop()
				finish(false)
			}
			p.tcpReply = func(pkt *netem.Packet) {
				seg, ok := pkt.Payload.(*tcpsim.Segment)
				if ok && seg.Flags&tcpsim.FlagSYN != 0 && seg.Flags&tcpsim.FlagACK != 0 {
					timeout.Stop()
					finish(true)
				}
			}
			pkt := p.node.NewPacket()
			pkt.Dst = dst
			pkt.DstPort = PEPPort
			pkt.SrcPort = srcPort
			pkt.Proto = netem.ProtoTCP
			pkt.Size = 60
			pkt.TTL = ttl
			// The segment stays a literal: probes are rare, so pooling
			// buys nothing here.
			pkt.Payload = &tcpsim.Segment{Flags: tcpsim.FlagSYN, Wnd: 65535}
			p.node.Send(pkt)
		}
		p.node.Bind(netem.ProtoTCP, srcPort, func(pkt *netem.Packet) {
			if p.tcpReply != nil {
				p.tcpReply(pkt)
			}
		})
		step(1)
	})
}
