package quic

import "fmt"

// MaxDatagramSize is the UDP payload budget per packet, matching quiche's
// default max_send_udp_payload_size of 1350 bytes.
const MaxDatagramSize = 1350

// headerOverhead is the serialized header size: 1 type byte, 8-byte
// connection ID, 8-byte packet number. Real QUIC compresses packet
// numbers to 1-4 bytes; the fixed encoding costs a few header bytes per
// packet and removes the decoding ambiguity machinery, which none of the
// reproduced measurements observe.
const headerOverhead = 1 + 8 + 8

// MaxPayloadSize is the frame budget per packet.
const MaxPayloadSize = MaxDatagramSize - headerOverhead

// PacketHeader is the simplified wire header.
type PacketHeader struct {
	// Handshake marks pre-established packets (Initial/Handshake
	// collapsed into one flag; there is a single packet number space,
	// which is also what makes "missing packet number = loss" exact).
	Handshake bool
	ConnID    uint64
	Number    uint64
}

// Packet is a parsed QUIC packet.
type Packet struct {
	Header PacketHeader
	Frames []Frame
	// Size is the serialized size in bytes including header.
	Size int
}

// AckEliciting reports whether any frame in the packet elicits an ACK.
func (p *Packet) AckEliciting() bool {
	for _, f := range p.Frames {
		if f.AckEliciting() {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{pn=%d conn=%x frames=%d size=%d}", p.Header.Number, p.Header.ConnID, len(p.Frames), p.Size)
}

// Serialize encodes header and frames to freshly allocated wire bytes.
func Serialize(h PacketHeader, frames []Frame) []byte {
	size := headerOverhead
	for _, f := range frames {
		size += f.WireLen()
	}
	b := appendHeader(make([]byte, 0, size), h)
	for _, f := range frames {
		b = f.Append(b)
	}
	return b
}

func appendHeader(b []byte, h PacketHeader) []byte {
	var t byte = 0x40 // fixed bit
	if h.Handshake {
		t |= 0x80 // long-header flavour
	}
	b = append(b, t)
	b = appendUint64(b, h.ConnID)
	return appendUint64(b, h.Number)
}

// encode writes header and frames into w as Serialize would, except
// that the payload of a STREAM or CRYPTO frame is not copied: w.refs gets
// the frame's Data, in frame order, and w.b the frame's other bytes. An
// empty payload takes no ref.
func (w *wireBuf) encode(h PacketHeader, frames []Frame) {
	w.b = appendHeader(w.b, h)
	for _, f := range frames {
		var data []byte
		switch f := f.(type) {
		case *StreamFrame:
			w.b, data = f.appendHead(w.b), f.Data
		case *CryptoFrame:
			w.b, data = f.appendHead(w.b), f.Data
		default:
			w.b = f.Append(w.b)
		}
		if len(data) > 0 {
			w.refs = append(w.refs, data)
		}
	}
}

// Parse decodes a wire packet into a freshly allocated Packet. Frame Data
// slices alias b.
func Parse(b []byte) (*Packet, error) {
	return new(parser).parse(b, false, nil)
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func readUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
