// Package quic implements a QUIC-like transport over the netem emulator.
//
// The implementation follows the transport machinery of RFC 9000/9002 —
// variable-length integer encoding, frames, packet numbers, ACK ranges,
// flow control, loss detection with packet and time thresholds, probe
// timeouts, and CUBIC congestion control — and mirrors the specific
// behaviours of the quiche implementation at the commit the paper pinned
// (ba87786): monotonically increasing packet numbers with no gaps (so a
// receiver infers losses from missing numbers), retransmission under
// fresh packet numbers, 10 MB initial flow-control windows, and no packet
// pacing by default.
//
// It deliberately omits what the paper's measurements cannot observe:
// TLS 1.3 key exchange (the handshake costs the right round trips but
// carries opaque bytes), version negotiation and connection migration.
// 0-RTT resumption (a client with a Config.Sessions cache) exists for the
// post-paper stack only.
// See DESIGN.md for the substitution argument.
package quic

import (
	"errors"
	"fmt"
)

// Varint limits per RFC 9000 §16.
const (
	maxVarint1 = 63
	maxVarint2 = 16383
	maxVarint4 = 1073741823
	maxVarint8 = 4611686018427387903
)

// MaxVarint is the largest value representable as a QUIC varint.
const MaxVarint = uint64(maxVarint8)

// ErrTruncated reports a buffer ending mid-field.
var ErrTruncated = errors.New("quic: truncated input")

// AppendVarint appends the RFC 9000 variable-length encoding of v to b.
// It panics if v exceeds MaxVarint (a programming error: all protocol
// values are bounded well below it).
func AppendVarint(b []byte, v uint64) []byte {
	switch {
	case v <= maxVarint1:
		return append(b, byte(v))
	case v <= maxVarint2:
		return append(b, byte(v>>8)|0x40, byte(v))
	case v <= maxVarint4:
		return append(b, byte(v>>24)|0x80, byte(v>>16), byte(v>>8), byte(v))
	case v <= maxVarint8:
		return append(b, byte(v>>56)|0xc0, byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		panic(fmt.Sprintf("quic: varint overflow: %d", v))
	}
}

// VarintLen returns the encoded size of v in bytes.
func VarintLen(v uint64) int {
	switch {
	case v <= maxVarint1:
		return 1
	case v <= maxVarint2:
		return 2
	case v <= maxVarint4:
		return 4
	default:
		return 8
	}
}

// ReadVarint decodes a varint from the front of b, returning the value
// and the number of bytes consumed.
func ReadVarint(b []byte) (v uint64, n int, err error) {
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	length := 1 << (b[0] >> 6)
	if len(b) < length {
		return 0, 0, ErrTruncated
	}
	v = uint64(b[0] & 0x3f)
	for i := 1; i < length; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v, length, nil
}
