package core

import (
	"fmt"
	"strings"
	"time"

	"starlinkperf/internal/cc"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/tcpsim"
)

// TransportProfile selects the transport-stack behaviors shared by the
// QUIC and TCP models. The zero value (and PaperTransport) reproduces the
// paper's measurement tools exactly — unpaced quiche-style QUIC and the
// testbed kernel's CUBIC TCP — and applying it changes nothing, so the
// default campaign output stays bit-identical. ModernTransport enables
// the post-paper stack (BBR, pacing, 0-RTT resumption, connection
// migration, windowed min-RTT, idle cwnd decay); the individual fields
// are à-la-carte toggles for ablations.
type TransportProfile struct {
	// Name is the label the profile was parsed from ("paper", "modern",
	// or the toggle list); it rides into reports and figure captions.
	Name string
	// BBR switches the congestion controller from CUBIC to the
	// deterministic BBR model (startup/drain/probe-bw/probe-rtt over a
	// windowed delivery-rate filter).
	BBR bool
	// Pacing spaces packet departures at the controller-derived rate on
	// both QUIC and TCP senders.
	Pacing bool
	// ZeroRTT resumes repeat QUIC connections from the testbed's session
	// cache without the handshake round trip.
	ZeroRTT bool
	// Migration lets established QUIC connections follow a peer across a
	// NAT rebind (handover/outage-induced address change).
	Migration bool
	// RTTMinWindow bounds the age of the min-RTT filter so BDP-derived
	// state tracks path changes; zero keeps the all-time minimum.
	RTTMinWindow time.Duration
	// CwndIdleDecay decays the CUBIC congestion window across idle
	// periods (RFC 7661-style), taming the post-outage resume burst.
	// Ignored when BBR is set.
	CwndIdleDecay bool
}

// PaperTransport returns the profile reproducing the paper's tools.
func PaperTransport() TransportProfile { return TransportProfile{Name: "paper"} }

// ModernTransport returns the full post-paper stack.
func ModernTransport() TransportProfile {
	return TransportProfile{
		Name:          "modern",
		BBR:           true,
		Pacing:        true,
		ZeroRTT:       true,
		Migration:     true,
		RTTMinWindow:  10 * time.Second,
		CwndIdleDecay: true,
	}
}

// ParseTransport resolves a -transport flag value: "paper" (or empty) and
// "modern" name the two profiles; otherwise a comma-separated list of
// feature toggles (bbr, pacing, zerortt, migration, minrtt, idledecay)
// builds an à-la-carte profile on the paper baseline.
func ParseTransport(s string) (TransportProfile, error) {
	switch strings.TrimSpace(s) {
	case "", "paper":
		return PaperTransport(), nil
	case "modern":
		return ModernTransport(), nil
	}
	p := TransportProfile{Name: strings.TrimSpace(s)}
	for _, tok := range strings.Split(s, ",") {
		switch strings.TrimSpace(tok) {
		case "bbr":
			p.BBR = true
		case "pacing":
			p.Pacing = true
		case "zerortt":
			p.ZeroRTT = true
		case "migration":
			p.Migration = true
		case "minrtt":
			p.RTTMinWindow = 10 * time.Second
		case "idledecay":
			p.CwndIdleDecay = true
		default:
			return TransportProfile{}, fmt.Errorf("unknown transport toggle %q (want paper, modern, or a list of bbr,pacing,zerortt,migration,minrtt,idledecay)", tok)
		}
	}
	return p, nil
}

// IsPaper reports whether the profile is behaviorally the paper baseline
// (all toggles off), regardless of how it was named.
func (p TransportProfile) IsPaper() bool {
	return !p.BBR && !p.Pacing && !p.ZeroRTT && !p.Migration &&
		p.RTTMinWindow == 0 && !p.CwndIdleDecay
}

// applyQUIC overlays the profile onto a QUIC endpoint configuration.
// sessions is the testbed-owned ticket cache (campaigns build a fresh
// endpoint per transfer, so resumption state must live above them).
func (p TransportProfile) applyQUIC(cfg *quic.Config, sessions *quic.SessionCache) {
	switch {
	case p.BBR:
		cfg.NewCC = func() cc.CongestionController { return cc.NewBBR(quic.MaxPayloadSize) }
	case p.CwndIdleDecay:
		cfg.NewCC = func() cc.CongestionController {
			c := cc.NewCubic(quic.MaxPayloadSize)
			c.IdleDecay = true
			return c
		}
	}
	if p.Pacing {
		cfg.EnablePacing = true
	}
	if p.ZeroRTT {
		cfg.EnableZeroRTT = true
		cfg.Sessions = sessions
	}
	if p.Migration {
		cfg.AllowMigration = true
	}
	if p.RTTMinWindow > 0 {
		cfg.RTTMinWindow = p.RTTMinWindow
	}
}

// applyTCP overlays the profile onto a TCP endpoint configuration.
// 0-RTT and migration are QUIC mechanisms and do not apply.
func (p TransportProfile) applyTCP(cfg *tcpsim.Config) {
	switch {
	case p.BBR:
		cfg.NewCC = func(mss int) cc.CongestionController { return cc.NewBBR(mss) }
	case p.CwndIdleDecay:
		cfg.NewCC = func(mss int) cc.CongestionController {
			c := cc.NewCubic(mss)
			c.IdleDecay = true
			return c
		}
	}
	if p.Pacing {
		cfg.EnablePacing = true
	}
	if p.RTTMinWindow > 0 {
		cfg.RTTMinWindow = p.RTTMinWindow
	}
}
