package quic

import (
	"runtime"
	"testing"
	"time"

	"starlinkperf/internal/netem"
)

// allocBulk starts an endless client->server bulk transfer over a
// rate-limited two-node path whose DropTail queue overflows now and then,
// and runs it past slow start: from here on the sender is cwnd-limited
// and every packet walks the whole cycle — cut from the filler run,
// serialized into a recycled wire buffer, queued, delivered, parsed into
// the endpoint's scratch, acknowledged, and its buffer, sent-packet record
// and frame struct released — with the occasional loss, retransmission
// and out-of-order reassembly chunk.
func allocBulk(tb testing.TB) (run func(), client, server *Connection, delivered *uint64) {
	tb.Helper()
	s, cep, sep, srv := pair(tb, netem.LinkConfig{
		RateBps:    50e6,
		Delay:      netem.ConstantDelay(10 * time.Millisecond),
		QueueBytes: 64 << 10,
	})
	delivered = new(uint64)
	sep.Listen(DefaultConfig(), func(c *Connection) {
		server = c
		c.OnStream = func(st *Stream) {
			st.OnData = func(data []byte, _ bool) { *delivered += uint64(len(data)) }
		}
	})
	client = cep.Dial(srv, 443, DefaultConfig())
	client.OnEstablished = func() { client.OpenStream().WriteZeroes(1 << 40) }
	// Warm every freelist, ring and backing array past its steady-state
	// high-water mark.
	s.RunFor(20 * time.Second)
	if client.Stats.PacketsLost == 0 {
		tb.Fatal("warm-up saw no loss: the path does not exercise retransmission")
	}
	return func() { s.RunFor(100 * time.Millisecond) }, client, server, delivered
}

// The steady-state QUIC datapath must not allocate per packet, and must
// not allocate anything that scales with the payload it moves.
func TestAllocGateBulkTransfer(t *testing.T) {
	run, client, server, delivered := allocBulk(t)

	sent0 := client.Stats.PacketsSent + server.Stats.PacketsSent
	data0 := client.Stats.AckElicitingSent
	bytes0 := *delivered
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 50
	perRun := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&m1)
	// AllocsPerRun makes one warm-up call on top of the counted ones.
	packets := float64(client.Stats.PacketsSent+server.Stats.PacketsSent-sent0) / (runs + 1)
	dataPackets := float64(client.Stats.AckElicitingSent-data0) / (runs + 1)
	payload := float64(*delivered - bytes0)
	if dataPackets < 100 || payload < 1e6 {
		t.Fatalf("transfer stalled: %.0f data packets per run, %.0f payload bytes", dataPackets, payload)
	}

	t.Logf("%.2f allocs per 100 ms of %.0f packets (%.0f data): %.4f per data packet; %.5f heap bytes per payload byte",
		perRun, packets, dataPackets, perRun/dataPackets, float64(m1.TotalAlloc-m0.TotalAlloc)/payload)
	// Measured: 0. The ceiling leaves room for a backing array that
	// doubles inside the window, not for one allocation per packet.
	if perData := perRun / dataPackets; perData > 0.1 {
		t.Errorf("%.3f allocs per data packet, want <= 0.1", perData)
	}
	// One heap byte per hundred payload bytes is already far more than
	// slices that double now and then (ACK ranges, the sent-packet deque)
	// account for; a single copy of the payload would read 1.0.
	if perByte := float64(m1.TotalAlloc-m0.TotalAlloc) / payload; perByte > 0.01 {
		t.Errorf("%.4f heap bytes allocated per payload byte, want ~0", perByte)
	}
}

// BenchmarkBulkTransferPacket reports the steady-state cost of the cycle
// per 100 ms of simulated transfer (~450 data packets and their ACKs).
func BenchmarkBulkTransferPacket(b *testing.B) {
	run, _, _, _ := allocBulk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
