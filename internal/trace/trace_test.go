package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
)

func rec(pn uint64, atMS int64) PacketRecord {
	return PacketRecord{PN: pn, At: sim.Time(atMS) * sim.Time(time.Millisecond), Size: 1350}
}

func TestAnalyzeLossesNoLoss(t *testing.T) {
	var recs []PacketRecord
	for i := uint64(0); i < 100; i++ {
		recs = append(recs, rec(i, int64(i)))
	}
	rep := AnalyzeLosses(recs)
	if rep.PacketsLost != 0 || len(rep.Events) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.PacketsSent != 100 || rep.PacketsReceived != 100 {
		t.Fatalf("sent/received = %d/%d", rep.PacketsSent, rep.PacketsReceived)
	}
}

func TestAnalyzeLossesSingleGap(t *testing.T) {
	recs := []PacketRecord{rec(0, 0), rec(1, 1), rec(5, 10), rec(6, 11)}
	rep := AnalyzeLosses(recs)
	if rep.PacketsLost != 3 {
		t.Fatalf("lost = %d, want 3", rep.PacketsLost)
	}
	if len(rep.Events) != 1 {
		t.Fatalf("events = %d", len(rep.Events))
	}
	e := rep.Events[0]
	if e.FirstPN != 2 || e.Burst != 3 {
		t.Errorf("event = %+v", e)
	}
	if e.Duration() != 9*time.Millisecond {
		t.Errorf("duration = %v, want 9ms (between arrivals at 1ms and 10ms)", e.Duration())
	}
}

func TestAnalyzeLossesMultipleBursts(t *testing.T) {
	recs := []PacketRecord{rec(0, 0), rec(2, 2), rec(3, 3), rec(7, 9), rec(8, 10)}
	rep := AnalyzeLosses(recs)
	if rep.PacketsLost != 4 { // pn 1 and pns 4,5,6
		t.Fatalf("lost = %d", rep.PacketsLost)
	}
	bl := rep.BurstLengths()
	if len(bl) != 2 || bl[0] != 1 || bl[1] != 3 {
		t.Fatalf("bursts = %v", bl)
	}
	if rep.LossRate() != 4.0/9.0 {
		t.Errorf("loss rate = %v", rep.LossRate())
	}
}

func TestAnalyzeLossesLeadingGap(t *testing.T) {
	recs := []PacketRecord{rec(2, 5), rec(3, 6)}
	rep := AnalyzeLosses(recs)
	if rep.PacketsLost != 2 {
		t.Fatalf("lost = %d, want the two missing handshake packets", rep.PacketsLost)
	}
	if rep.Events[0].FirstPN != 0 || rep.Events[0].Burst != 2 {
		t.Fatalf("event = %+v", rep.Events[0])
	}
}

func TestAnalyzeLossesIgnoresRetransmissionArrivalOrder(t *testing.T) {
	// A duplicate/late lower PN must not create a phantom gap.
	recs := []PacketRecord{rec(0, 0), rec(1, 1), rec(3, 3), rec(2, 4), rec(4, 5)}
	rep := AnalyzeLosses(recs)
	// Gap {2} recorded when 3 arrived; the late 2 is not re-counted and
	// 3->4 is contiguous from the highest-seen perspective.
	if rep.PacketsLost != 1 || len(rep.Events) != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCaptureEndToEnd(t *testing.T) {
	// Drive a real lossy QUIC transfer and verify capture-based loss
	// accounting agrees with link drop counters.
	s := sim.NewScheduler(71)
	nw := netem.New(s)
	a := nw.NewNode("c", netem.MustParseAddr("10.0.0.1"))
	b := nw.NewNode("s", netem.MustParseAddr("10.0.0.2"))
	lossy := netem.LinkConfig{
		RateBps: 50e6, Delay: netem.ConstantDelay(20 * time.Millisecond),
		Loss: &netem.BernoulliLoss{P: 0.02, Rng: s.RNG().Stream("l")},
	}
	clean := netem.LinkConfig{RateBps: 50e6, Delay: netem.ConstantDelay(20 * time.Millisecond)}
	ab := nw.AddLink(a, b, lossy)
	ba := nw.AddLink(b, a, clean)
	a.AddRoute(b.Addr(), ab)
	b.AddRoute(a.Addr(), ba)

	var wireDrops uint64
	ab.DropHook = func(sim.Time, *netem.Packet, netem.DropReason) { wireDrops++ }

	cep := quic.NewEndpoint(a, 5000)
	sep := quic.NewEndpoint(b, 443)
	var cap Capture
	done := false
	sep.Listen(quic.Config{}, func(c *quic.Connection) {
		cap.AttachReceiver(c)
		c.OnStream = func(st *quic.Stream) {
			st.OnData = func(_ []byte, fin bool) {
				if fin {
					done = true
				}
			}
		}
	})
	conn := cep.Dial(b.Addr(), 443, quic.Config{})
	var rtts RTTRecorder
	rtts.Attach(conn)
	conn.OnEstablished = func() {
		st := conn.OpenStream()
		st.WriteZeroes(1 << 20)
		st.Close()
	}
	s.RunFor(60 * time.Second)
	if !done {
		t.Fatal("transfer incomplete")
	}

	rep := AnalyzeLosses(cap.Received)
	if rep.PacketsLost == 0 {
		t.Fatal("no losses detected on a 2% lossy link")
	}
	// Capture-derived losses can only miss drops after the last arrival;
	// they must never exceed the wire truth.
	if rep.PacketsLost > wireDrops {
		t.Errorf("capture losses %d > wire drops %d", rep.PacketsLost, wireDrops)
	}
	if wireDrops-rep.PacketsLost > 3 {
		t.Errorf("capture missed %d of %d wire drops", wireDrops-rep.PacketsLost, wireDrops)
	}
	// Loss-event durations are positive and bounded by the transfer.
	for _, e := range rep.Events {
		if e.Duration() < 0 || e.Duration() > time.Minute {
			t.Errorf("implausible event duration %v", e.Duration())
		}
	}
	if len(rtts.Samples) == 0 {
		t.Error("no RTT samples recorded")
	}
}

func TestPcapWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	if err := w.WritePacket(1_500_000_000, []byte{1, 2, 3, 4}, 1350); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(2_000_000_000, []byte{5, 6}, 60); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 24+16+4+16+2 {
		t.Fatalf("file size = %d", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:]) != pcapMagic {
		t.Error("bad magic")
	}
	if binary.LittleEndian.Uint32(b[20:]) != pcapLinktypeRaw {
		t.Error("bad linktype")
	}
	// First record header.
	if binary.LittleEndian.Uint32(b[24:]) != 1 { // 1.5s -> 1 sec
		t.Error("bad ts_sec")
	}
	if binary.LittleEndian.Uint32(b[28:]) != 500000 { // 0.5s in usec
		t.Error("bad ts_usec")
	}
	if binary.LittleEndian.Uint32(b[32:]) != 4 || binary.LittleEndian.Uint32(b[36:]) != 1350 {
		t.Error("bad lengths")
	}
	if w.Packets != 2 {
		t.Errorf("packets = %d", w.Packets)
	}
}

func TestPcapWriteCapture(t *testing.T) {
	var c Capture
	c.Received = []PacketRecord{rec(0, 0), rec(1, 1)}
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	if err := w.WriteCapture(&c); err != nil {
		t.Fatal(err)
	}
	if w.Packets != 2 {
		t.Errorf("packets = %d", w.Packets)
	}
}
