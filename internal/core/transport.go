package core

import (
	"fmt"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/tcpsim"
)

// Transport selects the transport stack shared by the QUIC and TCP
// models. The zero value, TransportPaper, reproduces the paper's
// measurement tools exactly — unpaced quiche-style QUIC and the testbed
// kernel's CUBIC TCP — and applying it changes nothing, so the default
// campaign output stays bit-identical. TransportModern is the post-paper
// stack: BBR (whose connections filter min RTT over BBR's window),
// pacing and 0-RTT resumption.
type Transport uint8

// The two transport stacks.
const (
	TransportPaper Transport = iota
	TransportModern
)

// String is the -transport flag value naming t.
func (t Transport) String() string {
	if t == TransportModern {
		return "modern"
	}
	return "paper"
}

// ParseTransport resolves a -transport flag value: "paper" (or empty) or
// "modern".
func ParseTransport(s string) (Transport, error) {
	switch s {
	case "", "paper":
		return TransportPaper, nil
	case "modern":
		return TransportModern, nil
	}
	return TransportPaper, fmt.Errorf("unknown transport %q (want paper or modern)", s)
}

// applyQUIC overlays the stack onto a QUIC endpoint configuration.
// sessions is the testbed-owned ticket cache (campaigns build a fresh
// endpoint per transfer, so resumption state must live above them).
func (t Transport) applyQUIC(cfg *quic.Config, sessions *quic.SessionCache) {
	if t != TransportModern {
		return
	}
	cfg.NewCC = func() cc.CongestionController { return cc.NewBBR(quic.MaxPayloadSize) }
	cfg.EnablePacing = true
	cfg.Sessions = sessions
}

// applyTCP overlays the stack onto a TCP endpoint configuration. 0-RTT
// is a QUIC mechanism and does not apply.
func (t Transport) applyTCP(cfg *tcpsim.Config) {
	if t != TransportModern {
		return
	}
	cfg.NewCC = func(mss int) cc.CongestionController { return cc.NewBBR(mss) }
	cfg.EnablePacing = true
}
