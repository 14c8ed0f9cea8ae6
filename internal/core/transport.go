package core

import (
	"fmt"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/tcpsim"
)

// Transport selects the transport stack shared by the QUIC and TCP
// models. The zero value, TransportPaper, reproduces the paper's
// measurement tools exactly — unpaced quiche-style QUIC and the testbed
// kernel's CUBIC TCP — and applying it changes nothing, so the default
// campaign output stays bit-identical. TransportModern is the post-paper
// stack: BBR, pacing, 0-RTT resumption and a windowed min-RTT filter.
type Transport uint8

// The two transport stacks.
const (
	TransportPaper Transport = iota
	TransportModern
)

// modernMinRTTWindow bounds the age of the modern stack's min-RTT filter
// so BDP-derived state tracks path changes (the paper stack keeps the
// all-time minimum).
const modernMinRTTWindow = 10 * time.Second

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
	cfg.EnableZeroRTT = true
	cfg.Sessions = sessions
	cfg.RTTMinWindow = modernMinRTTWindow
}

// applyTCP overlays the stack onto a TCP endpoint configuration. 0-RTT
// is a QUIC mechanism and does not apply.
func (t Transport) applyTCP(cfg *tcpsim.Config) {
	if t != TransportModern {
		return
	}
	cfg.NewCC = func(mss int) cc.CongestionController { return cc.NewBBR(mss) }
	cfg.EnablePacing = true
	cfg.RTTMinWindow = modernMinRTTWindow
}
