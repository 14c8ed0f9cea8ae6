package quic

import (
	"fmt"
	"sort"

	"starlinkperf/internal/sim"
)

// Stream is a bidirectional QUIC stream. The API is event-driven to match
// the simulation: writers enqueue bytes, readers receive in-order data via
// the OnData callback, and received data is consumed eagerly (the
// measurement workloads read as fast as data arrives, like the paper's
// bulk-download clients).
type Stream struct {
	id   uint64
	conn *Connection

	// Send state: the bytes not yet packetized, starting at sendBase, as
	// a FIFO of runs, sendLen bytes in all.
	sendQ       sim.Ring[sendRun]
	sendLen     int
	sendBase    uint64 // offset of the first queued byte
	finQueued   bool
	finSent     bool
	finAcked    bool
	maxSendData uint64 // peer's stream flow-control limit
	blockedSent bool

	// Receive state. Out-of-order data waits in segments[segHead:], sorted
	// by offset; highest caches the largest end offset buffered or
	// delivered so far.
	recvOffset   uint64 // everything below is delivered
	segments     []segment
	segHead      int
	highest      uint64
	finalSize    uint64
	haveFinal    bool
	finDelivered bool
	maxRecvData  uint64 // limit we advertised
	recvWindow   uint64 // window size used when extending the limit

	// OnData is invoked with each in-order chunk; fin marks the last.
	// data is read-only and valid only during the callback: it aliases
	// the sender's payload memory, which other streams share (the zero
	// page among it). A consumer that wants the bytes later copies them.
	OnData func(data []byte, fin bool)

	// BytesReceived counts delivered payload bytes.
	BytesReceived uint64
	// BytesSent counts payload bytes handed to packets (first
	// transmissions only, not retransmissions).
	BytesSent uint64
}

// sendRun is one contiguous piece of the send queue: the bytes of a Write
// (data holds what is left of them), or — data nil — n filler bytes that
// are never materialised.
type sendRun struct {
	data []byte
	n    int
}

// zeroPage backs the payload of every frame cut from a WriteZeroes run
// and of every CRYPTO frame. All streams of all connections alias it, on
// both ends, so it is read-only: nothing writes into a frame's Data.
var zeroPage [MaxPayloadSize]byte

// segment is buffered out-of-order stream data, kept as the slice it
// arrived as: a wire buffer's ref, which nothing writes (wireBuf).
type segment struct {
	off  uint64
	data []byte
}

// Write queues a copy of data for transmission and kicks the send path.
// It never blocks; the bytes wait until flow control and the congestion
// window let them out.
func (s *Stream) Write(data []byte) {
	if s.finQueued {
		panic(fmt.Sprintf("quic: write to stream %d after Close", s.id))
	}
	if len(data) > 0 {
		s.sendQ.Push(sendRun{data: append([]byte(nil), data...), n: len(data)})
		s.sendLen += len(data)
	}
	s.conn.markActive(s)
	s.conn.maybeSend()
}

// WriteZeroes queues n filler bytes, the bulk-transfer workload's payload,
// as one run record whatever n is.
func (s *Stream) WriteZeroes(n int) {
	if s.finQueued {
		panic(fmt.Sprintf("quic: write to stream %d after Close", s.id))
	}
	s.queueZeroes(n)
	s.conn.markActive(s)
	s.conn.maybeSend()
}

func (s *Stream) queueZeroes(n int) {
	if n <= 0 {
		return
	}
	if s.sendQ.Len() > 0 && s.sendQ.Back().data == nil {
		s.sendQ.Back().n += n
	} else {
		s.sendQ.Push(sendRun{n: n})
	}
	s.sendLen += n
}

// Close queues the FIN after all buffered data.
func (s *Stream) Close() {
	if s.finQueued {
		return
	}
	s.finQueued = true
	s.conn.markActive(s)
	s.conn.maybeSend()
}

// pendingSend reports whether the stream has bytes or a FIN to transmit,
// within its flow-control limit.
func (s *Stream) pendingSend() bool {
	if s.sendLen > 0 && s.sendBase < s.maxSendData {
		return true
	}
	return s.finQueued && !s.finSent && s.sendLen == 0
}

// nextFrame cuts a STREAM frame of at most maxBytes payload from the send
// queue, honouring stream flow control (connection flow control is
// enforced by the caller, which passes a pre-clamped budget). The frame
// struct comes from the connection's freelist.
func (s *Stream) nextFrame(maxBytes int) *StreamFrame {
	if maxBytes <= 0 {
		return nil
	}
	n := s.sendLen
	if allowed := s.maxSendData - s.sendBase; uint64(n) > allowed {
		n = int(allowed)
	}
	if n > maxBytes {
		n = maxBytes
	}
	fin := s.finQueued && !s.finSent && n == s.sendLen
	if n == 0 && !fin {
		return nil
	}
	f := s.conn.getStreamFrame()
	f.StreamID, f.Offset, f.Data, f.Fin = s.id, s.sendBase, s.cut(n), fin
	s.sendBase += uint64(n)
	s.BytesSent += uint64(n)
	if fin {
		s.finSent = true
	}
	return f
}

// cut removes the first n queued bytes and returns them without copying
// when they lie inside one run: a slice of the Write's own bytes, or of
// the zero page. Only a frame that straddles two runs is assembled into a
// fresh buffer — frame boundaries never depend on run boundaries.
func (s *Stream) cut(n int) []byte {
	if n == 0 {
		return nil
	}
	s.sendLen -= n
	if r := s.sendQ.Front(); n <= r.n {
		return s.cutRun(r, n)
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		r := s.sendQ.Front()
		out = append(out, s.cutRun(r, min(n-len(out), r.n))...)
	}
	return out
}

// cutRun takes k <= r.n bytes off the head run r, retiring it when empty.
func (s *Stream) cutRun(r *sendRun, k int) []byte {
	var out []byte
	switch {
	case r.data != nil:
		out, r.data = r.data[:k:k], r.data[k:]
	case k <= len(zeroPage):
		out = zeroPage[:k:k]
	default:
		out = make([]byte, k)
	}
	if r.n -= k; r.n == 0 {
		s.sendQ.Pop()
	}
	return out
}

// onFrameAcked records delivery of a stream frame.
func (s *Stream) onFrameAcked(f *StreamFrame) {
	if f.Fin && f.Offset+uint64(len(f.Data)) == s.sendBase && s.finSent {
		s.finAcked = true
	}
}

// receive ingests a STREAM frame, reassembles, and delivers in-order data.
// It returns the number of new bytes that count against flow control
// (i.e. bytes extending the highest received offset). In-order data is
// delivered straight from f.Data; data that has to wait is kept by
// reference.
func (s *Stream) receive(f *StreamFrame) uint64 {
	end := f.Offset + uint64(len(f.Data))
	var newHighest uint64
	if end > s.highest {
		newHighest = end - s.highest
	}
	if f.Fin {
		s.finalSize = end
		s.haveFinal = true
	}
	if len(f.Data) > 0 && end > s.recvOffset {
		data := f.Data
		off := f.Offset
		if off < s.recvOffset { // trim duplicate prefix
			data = data[s.recvOffset-off:]
			off = s.recvOffset
		}
		if end > s.highest {
			s.highest = end
		}
		if off == s.recvOffset {
			// Every buffered segment starts above recvOffset, so this
			// data is next.
			s.deliverData(data)
		} else {
			s.insertSegment(off, data)
		}
	}
	s.deliver()
	return newHighest
}

// insertSegment buffers data at off, keeping segments sorted (a new
// segment goes before buffered ones with the same offset).
func (s *Stream) insertSegment(off uint64, data []byte) {
	if s.segHead > 0 && len(s.segments) == cap(s.segments) {
		n := copy(s.segments, s.segments[s.segHead:])
		clear(s.segments[n:])
		s.segments, s.segHead = s.segments[:n], 0
	}
	live := s.segments[s.segHead:]
	i := s.segHead + sort.Search(len(live), func(i int) bool { return live[i].off >= off })
	s.segments = append(s.segments, segment{})
	copy(s.segments[i+1:], s.segments[i:])
	s.segments[i] = segment{off: off, data: data}
}

// deliverData hands the next in-order bytes to the application and
// returns their flow-control credit.
func (s *Stream) deliverData(data []byte) {
	s.recvOffset += uint64(len(data))
	s.BytesReceived += uint64(len(data))
	fin := s.haveFinal && s.recvOffset == s.finalSize && !s.finDelivered
	if fin {
		s.finDelivered = true
	}
	if s.OnData != nil {
		s.OnData(data, fin)
	}
	// Eager consumption: return the credit immediately.
	s.conn.onStreamConsumed(s, uint64(len(data)))
}

// deliver pushes buffered data that became contiguous to the application.
func (s *Stream) deliver() {
	for s.segHead < len(s.segments) {
		seg := s.segments[s.segHead]
		if seg.off > s.recvOffset {
			break // gap
		}
		s.segments[s.segHead] = segment{}
		if s.segHead++; s.segHead == len(s.segments) {
			s.segments, s.segHead = s.segments[:0], 0
		}
		if seg.off+uint64(len(seg.data)) > s.recvOffset { // not fully duplicate
			s.deliverData(seg.data[s.recvOffset-seg.off:])
		}
	}
	if s.haveFinal && s.recvOffset == s.finalSize && !s.finDelivered {
		s.finDelivered = true
		if s.OnData != nil {
			s.OnData(nil, true)
		}
	}
}
