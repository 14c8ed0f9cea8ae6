package netem

import (
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

// BenchmarkLinkForward measures one packet's full trip through a rated
// link: enqueue, serialization, propagation, delivery — one event, since
// the link has no loss, outage or jitter to decide as serialization ends.
// With the link pipe and the allocation-free scheduler this is 0
// allocs/op in steady state.
func BenchmarkLinkForward(b *testing.B) {
	s := sim.NewScheduler(1)
	nw := New(s)
	src := nw.NewNode("src", MustParseAddr("10.0.0.1"))
	dst := nw.NewNode("dst", MustParseAddr("10.0.0.2"))
	fwd, _ := nw.Connect(src, dst, LinkConfig{
		RateBps:    1e9,
		Delay:      ConstantDelay(5 * time.Millisecond),
		QueueBytes: 1 << 20,
	})
	src.AddRoute(dst.Addr(), fwd)
	delivered := 0
	dst.Bind(ProtoUDP, 9, func(pkt *Packet) { delivered++ })

	pkt := &Packet{Dst: dst.Addr(), DstPort: 9, Proto: ProtoUDP, Size: 1200}
	send := func() {
		pkt.TTL = 0 // Send refills the TTL
		src.Send(pkt)
		s.Run()
	}
	send() // warm the event pool

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	if delivered != b.N+1 {
		b.Fatalf("delivered %d of %d", delivered, b.N+1)
	}
}
