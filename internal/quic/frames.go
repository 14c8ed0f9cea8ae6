package quic

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
	// tail, when not nil, is the encoding of Ranges[1:] (Connection.buildAck
	// sets it from its ackTail), which Append and WireLen then take as is.
	tail []byte
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
	if f.tail != nil {
		return append(b, f.tail...)
	}
	return appendAckTail(b, f.Ranges)
}

// appendAckTail appends the encoding of ranges[1:]: per range, the gap
// below the previous range and the range's length.
func appendAckTail(b []byte, ranges []AckRange) []byte {
	prev := ranges[0].Smallest
	for _, r := range ranges[1:] {
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
	if f.tail != nil {
		return n + len(f.tail)
	}
	prev := f.Ranges[0].Smallest
	for _, r := range f.Ranges[1:] {
		n += VarintLen(prev-r.Largest-2) + VarintLen(r.Largest-r.Smallest)
		prev = r.Smallest
	}
	return n
}

// AckEliciting implements Frame.
func (f *AckFrame) AckEliciting() bool { return false }

// ackTail is the encoding of an ACK frame's Ranges[1:] (enc), with the
// ranges it encodes and the Ranges[0].Smallest the first gap counts from.
// The encoding is a function of those two, and decoding is a function of
// the bytes, the range count and that smallest, so a connection reuses the
// encoding of the last ACK it built, and an endpoint the ranges of the
// last ACK it parsed, whenever those inputs repeat: in a transfer they do
// from one ACK to the next until a packet number hole opens or fills,
// since only Ranges[0] grows.
type ackTail struct {
	smallest uint64
	ranges   []AckRange
	enc      []byte
}

// encode returns the encoding of ranges[1:], encoding afresh only when
// ranges[0].Smallest or any range of ranges[1:] differs from the last
// call's: a late packet can extend a middle range without changing the
// count. The result is t's and good until the next call.
func (t *ackTail) encode(ranges []AckRange) []byte {
	if ranges[0].Smallest != t.smallest || !slices.Equal(ranges[1:], t.ranges) {
		t.smallest = ranges[0].Smallest
		t.ranges = append(t.ranges[:0], ranges[1:]...)
		t.enc = appendAckTail(t.enc[:0], ranges)
	}
	return t.enc
}

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
	return append(f.appendHead(b), f.Data...)
}

// appendHead appends the frame's encoding up to its payload.
func (f *CryptoFrame) appendHead(b []byte) []byte {
	b = append(b, frameTypeCrypto)
	b = AppendVarint(b, f.Offset)
	return AppendVarint(b, uint64(len(f.Data)))
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
	return append(f.appendHead(b), f.Data...)
}

// appendHead appends the frame's encoding up to its payload.
func (f *StreamFrame) appendHead(b []byte) []byte {
	t := byte(frameTypeStreamBase | streamFlagOff | streamFlagLen)
	if f.Fin {
		t |= streamFlagFin
	}
	b = append(b, t)
	b = AppendVarint(b, f.StreamID)
	b = AppendVarint(b, f.Offset)
	return AppendVarint(b, uint64(len(f.Data)))
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
// does not allocate. Whatever a parse returns is valid until the next
// parse; nothing of the previous packet shows through. Data slices alias
// the input: the bytes of a flat packet, the refs of a wire buffer.
type parser struct {
	pkt Packet

	// byRef marks a wire buffer's parse: a STREAM or CRYPTO frame with a
	// nonzero length takes its Data from refs, the buffer's refs not yet
	// taken, and not from the bytes.
	byRef bool
	refs  [][]byte
	// tails is the last ACK tail decoded, which the next ACK with the
	// same range count, first-range smallest and tail bytes reuses: an
	// endpoint's parser keeps one, a one-shot Parse has nothing to reuse
	// and leaves it nil.
	tails *ackTail

	padding       slab[PaddingFrame]
	ack           slab[AckFrame]
	crypto        slab[CryptoFrame]
	stream        slab[StreamFrame]
	maxData       slab[MaxDataFrame]
	maxStreamData slab[MaxStreamDataFrame]
	dataBlocked   slab[DataBlockedFrame]
	connClose     slab[ConnectionCloseFrame]
}

// errRefMismatch fails the parse of a wire buffer whose refs do not match
// its STREAM and CRYPTO frames' lengths, or outnumber those frames.
var errRefMismatch = errors.New("quic: payload refs do not match the frames")

// parseWire decodes a wire buffer into the parser's Packet.
func (ps *parser) parseWire(w *wireBuf) (*Packet, error) { return ps.parse(w.b, true, w.refs) }

// parse decodes a packet into the parser's Packet: a flat one, Serialize's
// encoding, or with byRef the bytes of a wire buffer whose STREAM and
// CRYPTO payloads are refs. Its Size counts the refs, as
// Parse(Serialize(...)) would.
func (ps *parser) parse(b []byte, byRef bool, refs [][]byte) (*Packet, error) {
	ps.byRef, ps.refs = byRef, refs
	size := len(b)
	for _, r := range refs {
		size += len(r)
	}
	if len(b) < headerOverhead {
		return nil, ErrTruncated
	}
	if b[0]&0x40 == 0 {
		return nil, fmt.Errorf("quic: fixed bit not set")
	}
	if err := ps.parseFrames(b[headerOverhead:]); err != nil {
		return nil, err
	}
	if len(ps.refs) > 0 {
		ps.pkt.Frames = ps.pkt.Frames[:0]
		return nil, errRefMismatch
	}
	p := &ps.pkt
	p.Size = size
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
			rest, err := ps.parseAck(f, b[1:])
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
			data, rest, err := ps.payload(b[n:], length)
			if err != nil {
				return err
			}
			f := ps.crypto.next()
			f.Offset, f.Data = off, data
			frames = append(frames, f)
			b = rest

		case t >= frameTypeStreamBase && t <= frameTypeStreamBase|0x07:
			f := ps.stream.next()
			rest, err := ps.parseStream(f, t, b[1:])
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

// payload cuts the n payload bytes of a STREAM or CRYPTO frame whose
// encoding continues at b, and returns the rest of the bytes: from b in a
// flat packet, or the next ref, which must be n bytes long, in a wire
// buffer. An empty payload is b[:0] either way.
func (ps *parser) payload(b []byte, n uint64) (data, rest []byte, err error) {
	if ps.byRef && n > 0 {
		if len(ps.refs) == 0 || uint64(len(ps.refs[0])) != n {
			return nil, nil, errRefMismatch
		}
		data, ps.refs = ps.refs[0], ps.refs[1:]
		return data, b, nil
	}
	if uint64(len(b)) < n {
		return nil, nil, ErrTruncated
	}
	return b[:n], b[n:], nil
}

// parseAck decodes an ACK frame body into f, reusing f.Ranges' backing
// array, and the ranges of ps.tails when the body repeats its tail. The
// range count field is not trusted: every range costs at least two input
// bytes, so a hostile count runs into ErrTruncated.
func (ps *parser) parseAck(f *AckFrame, b []byte) ([]byte, error) {
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
	memo := ps.tails
	if memo != nil && rangeCount == uint64(len(memo.ranges)) && prev == memo.smallest && bytes.HasPrefix(b, memo.enc) {
		f.Ranges = append(f.Ranges, memo.ranges...)
		return b[len(memo.enc):], nil
	}
	tail := b
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
	if memo != nil {
		memo.smallest = f.Ranges[0].Smallest
		memo.ranges = append(memo.ranges[:0], f.Ranges[1:]...)
		memo.enc = append(memo.enc[:0], tail[:len(tail)-len(b)]...)
	}
	return b, nil
}

// parseStream decodes a STREAM frame body into f.
func (ps *parser) parseStream(f *StreamFrame, t byte, b []byte) ([]byte, error) {
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
		if f.Data, b, err = ps.payload(b[n:], length); err != nil {
			return nil, err
		}
	} else {
		f.Data = b
		b = nil
	}
	return b, nil
}
