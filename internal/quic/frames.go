package quic

import (
	"fmt"
	"time"
)

// Frame type identifiers (values follow RFC 9000 §19 where they exist).
const (
	frameTypePadding       = 0x00
	frameTypePing          = 0x01
	frameTypeAck           = 0x02
	frameTypeCrypto        = 0x06
	frameTypeMaxData       = 0x10
	frameTypeMaxStreamData = 0x11
	frameTypeDataBlocked   = 0x14
	frameTypeConnClose     = 0x1c
	// STREAM frames use 0x08..0x0f; the three low bits signal the
	// presence of OFF/LEN fields and FIN. The encoder always includes
	// offset and length, so only FIN varies.
	frameTypeStreamBase = 0x08
	streamFlagFin       = 0x01
	streamFlagLen       = 0x02
	streamFlagOff       = 0x04
)

// Frame is a QUIC frame that can serialize itself.
type Frame interface {
	// Append serializes the frame to b.
	Append(b []byte) []byte
	// WireLen returns the exact encoded size in bytes.
	WireLen() int
	// AckEliciting reports whether the frame requires acknowledgement.
	AckEliciting() bool
	fmt.Stringer
}

// PaddingFrame is a run of zero bytes.
type PaddingFrame struct{ Length int }

// Append implements Frame.
func (f *PaddingFrame) Append(b []byte) []byte {
	for i := 0; i < f.Length; i++ {
		b = append(b, frameTypePadding)
	}
	return b
}

// WireLen implements Frame.
func (f *PaddingFrame) WireLen() int { return f.Length }

// AckEliciting implements Frame.
func (f *PaddingFrame) AckEliciting() bool { return false }

// String implements fmt.Stringer.
func (f *PaddingFrame) String() string { return fmt.Sprintf("PADDING(%d)", f.Length) }

// PingFrame elicits an acknowledgement.
type PingFrame struct{}

// Append implements Frame.
func (f *PingFrame) Append(b []byte) []byte { return append(b, frameTypePing) }

// WireLen implements Frame.
func (f *PingFrame) WireLen() int { return 1 }

// AckEliciting implements Frame.
func (f *PingFrame) AckEliciting() bool { return true }

// String implements fmt.Stringer.
func (f *PingFrame) String() string { return "PING" }

// AckRange is a closed range of acknowledged packet numbers.
type AckRange struct {
	Smallest uint64
	Largest  uint64
}

// AckFrame acknowledges ranges of packet numbers. Ranges are ordered
// descending by packet number, Ranges[0] containing the largest.
type AckFrame struct {
	Ranges   []AckRange
	AckDelay time.Duration
}

// Largest returns the largest acknowledged packet number.
func (f *AckFrame) Largest() uint64 { return f.Ranges[0].Largest }

// Contains reports whether pn is acknowledged by the frame.
func (f *AckFrame) Contains(pn uint64) bool {
	for _, r := range f.Ranges {
		if pn >= r.Smallest && pn <= r.Largest {
			return true
		}
	}
	return false
}

// Append implements Frame.
func (f *AckFrame) Append(b []byte) []byte {
	b = append(b, frameTypeAck)
	b = AppendVarint(b, f.Ranges[0].Largest)
	b = AppendVarint(b, uint64(f.AckDelay/time.Microsecond))
	b = AppendVarint(b, uint64(len(f.Ranges)-1))
	b = AppendVarint(b, f.Ranges[0].Largest-f.Ranges[0].Smallest)
	prev := f.Ranges[0].Smallest
	for _, r := range f.Ranges[1:] {
		// Gap: numbers skipped between ranges, minus the -2 bias of
		// RFC 9000 §19.3.1.
		b = AppendVarint(b, prev-r.Largest-2)
		b = AppendVarint(b, r.Largest-r.Smallest)
		prev = r.Smallest
	}
	return b
}

// WireLen implements Frame.
func (f *AckFrame) WireLen() int {
	n := 1 + VarintLen(f.Ranges[0].Largest) +
		VarintLen(uint64(f.AckDelay/time.Microsecond)) +
		VarintLen(uint64(len(f.Ranges)-1)) +
		VarintLen(f.Ranges[0].Largest-f.Ranges[0].Smallest)
	prev := f.Ranges[0].Smallest
	for _, r := range f.Ranges[1:] {
		n += VarintLen(prev-r.Largest-2) + VarintLen(r.Largest-r.Smallest)
		prev = r.Smallest
	}
	return n
}

// AckEliciting implements Frame.
func (f *AckFrame) AckEliciting() bool { return false }

// String implements fmt.Stringer.
func (f *AckFrame) String() string {
	return fmt.Sprintf("ACK(largest=%d ranges=%d delay=%v)", f.Ranges[0].Largest, len(f.Ranges), f.AckDelay)
}

// CryptoFrame carries handshake bytes. The payload is opaque: the
// emulated handshake costs real round trips and real bytes but performs
// no key exchange.
type CryptoFrame struct {
	Offset uint64
	Data   []byte
}

// Append implements Frame.
func (f *CryptoFrame) Append(b []byte) []byte {
	b = append(b, frameTypeCrypto)
	b = AppendVarint(b, f.Offset)
	b = AppendVarint(b, uint64(len(f.Data)))
	return append(b, f.Data...)
}

// WireLen implements Frame.
func (f *CryptoFrame) WireLen() int {
	return 1 + VarintLen(f.Offset) + VarintLen(uint64(len(f.Data))) + len(f.Data)
}

// AckEliciting implements Frame.
func (f *CryptoFrame) AckEliciting() bool { return true }

// String implements fmt.Stringer.
func (f *CryptoFrame) String() string {
	return fmt.Sprintf("CRYPTO(off=%d len=%d)", f.Offset, len(f.Data))
}

// StreamFrame carries application data for a stream.
type StreamFrame struct {
	StreamID uint64
	Offset   uint64
	Data     []byte
	Fin      bool
}

// Append implements Frame.
func (f *StreamFrame) Append(b []byte) []byte {
	t := byte(frameTypeStreamBase | streamFlagOff | streamFlagLen)
	if f.Fin {
		t |= streamFlagFin
	}
	b = append(b, t)
	b = AppendVarint(b, f.StreamID)
	b = AppendVarint(b, f.Offset)
	b = AppendVarint(b, uint64(len(f.Data)))
	return append(b, f.Data...)
}

// WireLen implements Frame.
func (f *StreamFrame) WireLen() int {
	return 1 + VarintLen(f.StreamID) + VarintLen(f.Offset) +
		VarintLen(uint64(len(f.Data))) + len(f.Data)
}

// AckEliciting implements Frame.
func (f *StreamFrame) AckEliciting() bool { return true }

// String implements fmt.Stringer.
func (f *StreamFrame) String() string {
	return fmt.Sprintf("STREAM(id=%d off=%d len=%d fin=%v)", f.StreamID, f.Offset, len(f.Data), f.Fin)
}

// MaxDataFrame raises the connection flow-control limit.
type MaxDataFrame struct{ Max uint64 }

// Append implements Frame.
func (f *MaxDataFrame) Append(b []byte) []byte {
	return AppendVarint(append(b, frameTypeMaxData), f.Max)
}

// WireLen implements Frame.
func (f *MaxDataFrame) WireLen() int { return 1 + VarintLen(f.Max) }

// AckEliciting implements Frame.
func (f *MaxDataFrame) AckEliciting() bool { return true }

// String implements fmt.Stringer.
func (f *MaxDataFrame) String() string { return fmt.Sprintf("MAX_DATA(%d)", f.Max) }

// MaxStreamDataFrame raises a stream flow-control limit.
type MaxStreamDataFrame struct {
	StreamID uint64
	Max      uint64
}

// Append implements Frame.
func (f *MaxStreamDataFrame) Append(b []byte) []byte {
	b = append(b, frameTypeMaxStreamData)
	b = AppendVarint(b, f.StreamID)
	return AppendVarint(b, f.Max)
}

// WireLen implements Frame.
func (f *MaxStreamDataFrame) WireLen() int {
	return 1 + VarintLen(f.StreamID) + VarintLen(f.Max)
}

// AckEliciting implements Frame.
func (f *MaxStreamDataFrame) AckEliciting() bool { return true }

// String implements fmt.Stringer.
func (f *MaxStreamDataFrame) String() string {
	return fmt.Sprintf("MAX_STREAM_DATA(id=%d max=%d)", f.StreamID, f.Max)
}

// DataBlockedFrame signals the sender is blocked on connection flow
// control.
type DataBlockedFrame struct{ Limit uint64 }

// Append implements Frame.
func (f *DataBlockedFrame) Append(b []byte) []byte {
	return AppendVarint(append(b, frameTypeDataBlocked), f.Limit)
}

// WireLen implements Frame.
func (f *DataBlockedFrame) WireLen() int { return 1 + VarintLen(f.Limit) }

// AckEliciting implements Frame.
func (f *DataBlockedFrame) AckEliciting() bool { return true }

// String implements fmt.Stringer.
func (f *DataBlockedFrame) String() string { return fmt.Sprintf("DATA_BLOCKED(%d)", f.Limit) }

// ConnectionCloseFrame terminates the connection.
type ConnectionCloseFrame struct {
	ErrorCode uint64
	Reason    string
}

// Append implements Frame.
func (f *ConnectionCloseFrame) Append(b []byte) []byte {
	b = append(b, frameTypeConnClose)
	b = AppendVarint(b, f.ErrorCode)
	b = AppendVarint(b, uint64(len(f.Reason)))
	return append(b, f.Reason...)
}

// WireLen implements Frame.
func (f *ConnectionCloseFrame) WireLen() int {
	return 1 + VarintLen(f.ErrorCode) + VarintLen(uint64(len(f.Reason))) + len(f.Reason)
}

// AckEliciting implements Frame.
func (f *ConnectionCloseFrame) AckEliciting() bool { return false }

// String implements fmt.Stringer.
func (f *ConnectionCloseFrame) String() string {
	return fmt.Sprintf("CONNECTION_CLOSE(%d %q)", f.ErrorCode, f.Reason)
}

// ParseFrames decodes the frames in a packet payload into freshly
// allocated frames. Data slices alias b.
func ParseFrames(b []byte) ([]Frame, error) {
	var ps parser
	if err := ps.parseFrames(b); err != nil {
		return nil, err
	}
	return ps.pkt.Frames, nil
}

// slab hands out reusable structs of one frame type: next returns the
// first unused one (allocating only when every earlier one is taken),
// reset makes all of them unused again. Callers overwrite every field.
type slab[T any] struct {
	items []*T
	used  int
}

func (s *slab[T]) next() *T {
	if s.used == len(s.items) {
		s.items = append(s.items, new(T))
	}
	f := s.items[s.used]
	s.used++
	return f
}

// parser decodes packets into storage it owns and reuses: the Packet, its
// frame list, one struct per frame and the ACK range arrays all survive
// from one parse to the next, so an endpoint parsing packet after packet
// does not allocate. Whatever a parse returns — Data slices included,
// which alias the input — is valid until the next parse; nothing of the
// previous packet shows through.
type parser struct {
	pkt Packet

	padding       slab[PaddingFrame]
	ack           slab[AckFrame]
	crypto        slab[CryptoFrame]
	stream        slab[StreamFrame]
	maxData       slab[MaxDataFrame]
	maxStreamData slab[MaxStreamDataFrame]
	dataBlocked   slab[DataBlockedFrame]
	connClose     slab[ConnectionCloseFrame]
}

// parse decodes a wire packet into the parser's Packet.
func (ps *parser) parse(b []byte) (*Packet, error) {
	if len(b) < headerOverhead {
		return nil, ErrTruncated
	}
	if b[0]&0x40 == 0 {
		return nil, fmt.Errorf("quic: fixed bit not set")
	}
	if err := ps.parseFrames(b[headerOverhead:]); err != nil {
		return nil, err
	}
	p := &ps.pkt
	p.Size = len(b)
	p.Header.Handshake = b[0]&0x80 != 0
	p.Header.ConnID = readUint64(b[1:9])
	p.Header.Number = readUint64(b[9:17])
	return p, nil
}

// parseFrames decodes a packet payload into ps.pkt.Frames.
func (ps *parser) parseFrames(b []byte) error {
	ps.padding.used, ps.ack.used, ps.crypto.used, ps.stream.used = 0, 0, 0, 0
	ps.maxData.used, ps.maxStreamData.used, ps.dataBlocked.used, ps.connClose.used = 0, 0, 0, 0
	frames := ps.pkt.Frames[:0]
	// A failed parse leaves an empty frame list behind, not half a packet.
	ps.pkt.Frames = frames
	for len(b) > 0 {
		t := b[0]
		switch {
		case t == frameTypePadding:
			n := 0
			for n < len(b) && b[n] == frameTypePadding {
				n++
			}
			f := ps.padding.next()
			f.Length = n
			frames = append(frames, f)
			b = b[n:]

		case t == frameTypePing:
			frames = append(frames, &PingFrame{})
			b = b[1:]

		case t == frameTypeAck:
			f := ps.ack.next()
			rest, err := parseAck(f, b[1:])
			if err != nil {
				return err
			}
			frames = append(frames, f)
			b = rest

		case t == frameTypeCrypto:
			b = b[1:]
			off, n, err := ReadVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			length, n, err := ReadVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < length {
				return ErrTruncated
			}
			f := ps.crypto.next()
			f.Offset, f.Data = off, b[:length]
			frames = append(frames, f)
			b = b[length:]

		case t >= frameTypeStreamBase && t <= frameTypeStreamBase|0x07:
			f := ps.stream.next()
			rest, err := parseStream(f, t, b[1:])
			if err != nil {
				return err
			}
			frames = append(frames, f)
			b = rest

		case t == frameTypeMaxData:
			v, n, err := ReadVarint(b[1:])
			if err != nil {
				return err
			}
			f := ps.maxData.next()
			f.Max = v
			frames = append(frames, f)
			b = b[1+n:]

		case t == frameTypeMaxStreamData:
			b = b[1:]
			id, n, err := ReadVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			v, n, err := ReadVarint(b)
			if err != nil {
				return err
			}
			f := ps.maxStreamData.next()
			f.StreamID, f.Max = id, v
			frames = append(frames, f)
			b = b[n:]

		case t == frameTypeDataBlocked:
			v, n, err := ReadVarint(b[1:])
			if err != nil {
				return err
			}
			f := ps.dataBlocked.next()
			f.Limit = v
			frames = append(frames, f)
			b = b[1+n:]

		case t == frameTypeConnClose:
			b = b[1:]
			code, n, err := ReadVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			rl, n, err := ReadVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < rl {
				return ErrTruncated
			}
			f := ps.connClose.next()
			f.ErrorCode, f.Reason = code, string(b[:rl])
			frames = append(frames, f)
			b = b[rl:]

		default:
			return fmt.Errorf("quic: unknown frame type %#x", t)
		}
	}
	ps.pkt.Frames = frames
	return nil
}

// parseAck decodes an ACK frame body into f, reusing f.Ranges' backing
// array. The range count field is not trusted: every range costs at least
// two input bytes, so a hostile count runs into ErrTruncated.
func parseAck(f *AckFrame, b []byte) ([]byte, error) {
	largest, n, err := ReadVarint(b)
	if err != nil {
		return nil, err
	}
	b = b[n:]
	delayUS, n, err := ReadVarint(b)
	if err != nil {
		return nil, err
	}
	b = b[n:]
	rangeCount, n, err := ReadVarint(b)
	if err != nil {
		return nil, err
	}
	b = b[n:]
	firstLen, n, err := ReadVarint(b)
	if err != nil {
		return nil, err
	}
	b = b[n:]
	if firstLen > largest {
		return nil, fmt.Errorf("quic: malformed ACK (first range underflows)")
	}
	f.AckDelay = time.Duration(delayUS) * time.Microsecond
	f.Ranges = append(f.Ranges[:0], AckRange{Smallest: largest - firstLen, Largest: largest})
	prev := f.Ranges[0].Smallest
	for i := uint64(0); i < rangeCount; i++ {
		gap, n, err := ReadVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		length, n, err := ReadVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		if gap+2 > prev {
			return nil, fmt.Errorf("quic: malformed ACK (gap underflows)")
		}
		largest := prev - gap - 2
		if length > largest {
			return nil, fmt.Errorf("quic: malformed ACK (range underflows)")
		}
		f.Ranges = append(f.Ranges, AckRange{Smallest: largest - length, Largest: largest})
		prev = largest - length
	}
	return b, nil
}

// parseStream decodes a STREAM frame body into f; f.Data aliases b.
func parseStream(f *StreamFrame, t byte, b []byte) ([]byte, error) {
	id, n, err := ReadVarint(b)
	if err != nil {
		return nil, err
	}
	b = b[n:]
	*f = StreamFrame{StreamID: id, Fin: t&streamFlagFin != 0}
	if t&streamFlagOff != 0 {
		off, n, err := ReadVarint(b)
		if err != nil {
			return nil, err
		}
		f.Offset = off
		b = b[n:]
	}
	if t&streamFlagLen != 0 {
		length, n, err := ReadVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		if uint64(len(b)) < length {
			return nil, ErrTruncated
		}
		f.Data = b[:length]
		b = b[length:]
	} else {
		f.Data = b
		b = nil
	}
	return b, nil
}
