package quic

import "starlinkperf/internal/cc"

// The congestion-control machinery is shared with the TCP model and lives
// in internal/cc; these aliases keep the quic API self-contained.

// CongestionController is the sender-side congestion control interface.
type CongestionController = cc.CongestionController

// Cubic is the CUBIC controller (RFC 8312).
type Cubic = cc.Cubic

// RTTEstimator maintains RFC 9002 §5 round-trip time state.
type RTTEstimator = cc.RTTEstimator

// Pacer spaces packet departures when enabled.
type Pacer = cc.Pacer

// InitialRTT is the pre-handshake RTT assumption.
const InitialRTT = cc.InitialRTT

// NewCubic returns a CUBIC controller sized for QUIC's payload budget.
func NewCubic() *Cubic { return cc.NewCubic(MaxPayloadSize) }

// BBR is the deterministic BBR-style model controller.
type BBR = cc.BBR

// NewBBR returns a BBR controller sized for QUIC's payload budget.
func NewBBR() *BBR { return cc.NewBBR(MaxPayloadSize) }
