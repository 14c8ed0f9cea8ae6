package quic

import (
	"math/rand/v2"
	"testing"
)

// fakeStream builds a stream on a minimal one-node network, sufficient
// for receive-side logic.
func fakeStream() *Stream {
	return &Stream{
		id:          0,
		conn:        fakeConn(true),
		maxSendData: 10 << 20,
		maxRecvData: 10 << 20,
		recvWindow:  10 << 20,
	}
}

func TestStreamReassemblyRandomOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 100; trial++ {
		s := fakeStream()
		// Split [0, total) into random chunks, deliver shuffled with
		// duplicates; content must come out once and in order.
		total := 1000 + r.IntN(20000)
		type chunk struct{ off, end int }
		var chunks []chunk
		for off := 0; off < total; {
			n := 1 + r.IntN(1800)
			end := off + n
			if end > total {
				end = total
			}
			chunks = append(chunks, chunk{off, end})
			off = end
		}
		// Duplicate ~20% of chunks.
		for _, c := range chunks {
			if r.Float64() < 0.2 {
				chunks = append(chunks, c)
			}
		}
		r.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })

		got := 0
		finSeen := false
		s.OnData = func(data []byte, fin bool) {
			got += len(data)
			if fin {
				finSeen = true
			}
		}
		for _, c := range chunks {
			s.receive(&StreamFrame{
				StreamID: 0,
				Offset:   uint64(c.off),
				Data:     make([]byte, c.end-c.off),
				Fin:      c.end == total,
			})
		}
		if got != total {
			t.Fatalf("trial %d: delivered %d of %d", trial, got, total)
		}
		if !finSeen {
			t.Fatalf("trial %d: fin not delivered", trial)
		}
		if !s.finDelivered {
			t.Fatalf("trial %d: stream not done", trial)
		}
	}
}

func TestStreamOverlappingSegments(t *testing.T) {
	s := fakeStream()
	got := 0
	s.OnData = func(data []byte, fin bool) { got += len(data) }
	// Overlapping deliveries: [0,100), [50,150), [100,300).
	s.receive(&StreamFrame{Offset: 0, Data: make([]byte, 100)})
	s.receive(&StreamFrame{Offset: 50, Data: make([]byte, 100)})
	s.receive(&StreamFrame{Offset: 100, Data: make([]byte, 200)})
	if got != 300 {
		t.Fatalf("delivered %d, want exactly 300 (no double delivery)", got)
	}
}

func TestStreamFinOnEmptyFrame(t *testing.T) {
	s := fakeStream()
	finSeen := false
	s.OnData = func(data []byte, fin bool) {
		if fin {
			finSeen = true
		}
	}
	s.receive(&StreamFrame{Offset: 0, Data: make([]byte, 10)})
	s.receive(&StreamFrame{Offset: 10, Data: nil, Fin: true})
	if !finSeen || !s.finDelivered {
		t.Fatal("empty FIN frame not delivered")
	}
}

func TestStreamWriteAfterClosePanics(t *testing.T) {
	s := fakeStream()
	s.finQueued = true
	defer func() {
		if recover() == nil {
			t.Fatal("Write after Close should panic")
		}
	}()
	s.Write([]byte("x"))
}

func TestStreamFlowControlBudget(t *testing.T) {
	s := fakeStream()
	s.maxSendData = 1000
	s.queueZeroes(5000)
	f := s.nextFrame(1 << 20)
	if f == nil || len(f.Data) != 1000 {
		t.Fatalf("frame should be clipped to the stream limit, got %v", f)
	}
	if s.pendingSend() {
		t.Fatal("stream at its flow-control limit must not report pending data")
	}
	s.maxSendData = 2500
	f2 := s.nextFrame(1000)
	if f2 == nil || len(f2.Data) != 1000 {
		t.Fatalf("frame should be clipped to the caller budget, got %v", f2)
	}
}
