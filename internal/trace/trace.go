// Package trace implements the paper's capture-based analysis: it records
// per-packet events from QUIC connections, infers losses from packet
// number gaps (valid because the transport never skips packet numbers and
// retransmits under fresh numbers), groups consecutive losses into bursts,
// measures loss-event durations from inter-arrival gaps at the receiver,
// and can export captures in the libpcap file format.
package trace

import (
	"time"

	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
)

// PacketRecord is one captured packet event.
type PacketRecord struct {
	At   sim.Time
	PN   uint64
	Size int
}

// Capture accumulates the packet events of a connection's receive side.
type Capture struct {
	// Received holds receiver-side events in arrival order.
	Received []PacketRecord
}

// AttachReceiver hooks the capture to a connection's receive path.
func (c *Capture) AttachReceiver(conn *quic.Connection) {
	conn.TraceReceived = func(at sim.Time, pn uint64, size int) {
		c.Received = append(c.Received, PacketRecord{At: at, PN: pn, Size: size})
	}
}

// LossEvent is a run of consecutively lost packet numbers, as inferred at
// the receiver.
type LossEvent struct {
	// FirstPN is the first missing packet number.
	FirstPN uint64
	// Burst is the number of consecutively missing packet numbers.
	Burst int
	// Start is the arrival time of the last packet before the gap; End
	// the arrival of the first packet after it. Duration = End - Start,
	// the paper's loss-event duration.
	Start, End sim.Time
}

// Duration returns the loss-event duration.
func (e LossEvent) Duration() time.Duration { return e.End.Sub(e.Start) }

// LossReport summarizes the losses of one direction of one transfer.
type LossReport struct {
	PacketsSent     uint64 // highest PN observed + 1 (sender view when available)
	PacketsReceived uint64
	PacketsLost     uint64
	Events          []LossEvent
}

// LossRate returns lost/sent.
func (r LossReport) LossRate() float64 {
	if r.PacketsSent == 0 {
		return 0
	}
	return float64(r.PacketsLost) / float64(r.PacketsSent)
}

// BurstLengths returns the burst length of every loss event.
func (r LossReport) BurstLengths() []int {
	out := make([]int, len(r.Events))
	for i, e := range r.Events {
		out[i] = e.Burst
	}
	return out
}

// EventDurations returns the duration of every loss event in seconds.
func (r LossReport) EventDurations() []float64 {
	out := make([]float64, len(r.Events))
	for i, e := range r.Events {
		out[i] = e.Duration().Seconds()
	}
	return out
}

// AnalyzeLosses reconstructs loss events from receiver-side arrivals.
//
// The transport sends packet numbers 0..N with no gaps and arrivals are
// in increasing PN order on FIFO paths, so every jump in consecutive
// arrivals is a loss burst. Packets missing after the final arrival
// cannot be distinguished from "still in flight" and are excluded, like
// in the paper's methodology.
func AnalyzeLosses(received []PacketRecord) LossReport {
	var rep LossReport
	rep.PacketsReceived = uint64(len(received))
	if len(received) == 0 {
		return rep
	}
	// Arrival order can contain slight PN inversions if the path
	// reorders; process in arrival order tracking the highest seen.
	highest := received[0].PN
	prev := received[0]
	// Count missing before the first arrival (lost handshake packets).
	if received[0].PN > 0 {
		rep.Events = append(rep.Events, LossEvent{
			FirstPN: 0,
			Burst:   int(received[0].PN),
			Start:   received[0].At, // no earlier arrival exists
			End:     received[0].At,
		})
		rep.PacketsLost += received[0].PN
	}
	for _, rec := range received[1:] {
		if rec.PN > highest {
			if rec.PN > prev.PN+1 && prev.PN == highest {
				burst := rec.PN - prev.PN - 1
				rep.Events = append(rep.Events, LossEvent{
					FirstPN: prev.PN + 1,
					Burst:   int(burst),
					Start:   prev.At,
					End:     rec.At,
				})
				rep.PacketsLost += burst
			}
			highest = rec.PN
		}
		prev = rec
	}
	rep.PacketsSent = highest + 1
	return rep
}

// AnalyzeSenderView computes the loss report from sender stats: the set
// of packets the peer eventually acknowledged is not directly visible, so
// this uses the connection's receiver-range view exposed by the peer —
// used for upload loss accounting, where the paper reads ACK frames at
// the server.
func AnalyzeSenderView(sent uint64, peerRanges []quic.AckRange) LossReport {
	var rep LossReport
	rep.PacketsSent = sent
	var got uint64
	next := uint64(0)
	for _, r := range peerRanges {
		got += r.Largest - r.Smallest + 1
		if r.Smallest > next {
			rep.Events = append(rep.Events, LossEvent{
				FirstPN: next,
				Burst:   int(r.Smallest - next),
			})
		}
		next = r.Largest + 1
	}
	rep.PacketsReceived = got
	if sent > got {
		rep.PacketsLost = sent - got
	}
	return rep
}

// RTTSample is one acknowledged-packet RTT observation.
type RTTSample struct {
	At  sim.Time
	RTT time.Duration
}

// RTTRecorder collects the per-ACK RTT samples the paper's Figure 3 uses.
type RTTRecorder struct {
	Samples []RTTSample
}

// Attach hooks the recorder to a connection.
func (r *RTTRecorder) Attach(conn *quic.Connection) {
	conn.OnRTTSample = func(at sim.Time, rtt time.Duration) {
		r.Samples = append(r.Samples, RTTSample{At: at, RTT: rtt})
	}
}

// Milliseconds returns all samples in milliseconds.
func (r *RTTRecorder) Milliseconds() []float64 {
	out := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = s.RTT.Seconds() * 1000
	}
	return out
}
