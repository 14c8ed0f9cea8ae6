package quic

import (
	"time"

	"starlinkperf/internal/sim"
)

// kPacketThreshold is the RFC 9002 §6.1.1 reordering threshold.
const kPacketThreshold = 3

// sentPacket records an in-flight packet for loss detection.
type sentPacket struct {
	pn           uint64
	sentAt       sim.Time
	size         int
	ackEliciting bool
	// frames holds the retransmittable frames for requeueing on loss. The
	// packet is their only owner: a PTO probe carries clones, never the
	// original's structs.
	frames []Frame
}

// ackResult is what processing one ACK frame yields. Newly and Lost share
// the detector's result arrays and are valid until its next onAck or
// detectTimeLosses.
type ackResult struct {
	Newly      []*sentPacket
	Lost       []*sentPacket
	LargestNew *sentPacket // largest newly acked, nil if none
}

// lossDetector implements sender-side RFC 9002 loss detection with the
// packet-number and time thresholds. Packets move from the in-order queue
// into a small candidate list once overtaken by an ACK, and from there to
// acked or lost.
type lossDetector struct {
	sent       sim.Ring[*sentPacket] // in packet-number order
	candidates []*sentPacket

	largestAcked   uint64
	haveAcked      bool
	bytesInFlight  int
	elicitingCount int

	// newly and lost back the slices onAck and detectTimeLosses return.
	newly, lost []*sentPacket
}

func (ld *lossDetector) onPacketSent(sp *sentPacket) {
	ld.sent.Push(sp)
	ld.bytesInFlight += sp.size
	if sp.ackEliciting {
		ld.elicitingCount++
	}
}

// InFlight returns the bytes currently counted against the congestion
// window.
func (ld *lossDetector) InFlight() int { return ld.bytesInFlight }

// HasUnacked reports whether any ack-eliciting packet awaits an ACK.
func (ld *lossDetector) HasUnacked() bool { return ld.elicitingCount > 0 }

func (ld *lossDetector) remove(sp *sentPacket) {
	ld.bytesInFlight -= sp.size
	if sp.ackEliciting {
		ld.elicitingCount--
	}
}

// onAck processes an ACK frame at now, classifying packets as newly
// acked or lost. lossDelay is the current time threshold.
func (ld *lossDetector) onAck(ack *AckFrame, now sim.Time, lossDelay time.Duration) ackResult {
	res := ackResult{Newly: ld.newly[:0], Lost: ld.lost[:0]}
	largest := ack.Largest()
	if !ld.haveAcked || largest > ld.largestAcked {
		ld.largestAcked = largest
		ld.haveAcked = true
	}

	// Drain the in-order queue up to the largest acked number.
	for ld.sent.Len() > 0 && (*ld.sent.Front()).pn <= ld.largestAcked {
		if sp := ld.sent.Pop(); ack.Contains(sp.pn) {
			ld.remove(sp)
			res.Newly = append(res.Newly, sp)
			if res.LargestNew == nil || sp.pn > res.LargestNew.pn {
				res.LargestNew = sp
			}
		} else {
			ld.candidates = append(ld.candidates, sp)
		}
	}

	// Re-examine candidates against this ACK and the loss thresholds.
	kept := ld.candidates[:0]
	for _, sp := range ld.candidates {
		switch {
		case ack.Contains(sp.pn):
			ld.remove(sp)
			res.Newly = append(res.Newly, sp)
			if res.LargestNew == nil || sp.pn > res.LargestNew.pn {
				res.LargestNew = sp
			}
		case ld.largestAcked >= sp.pn+kPacketThreshold,
			now.Sub(sp.sentAt) >= lossDelay:
			ld.remove(sp)
			res.Lost = append(res.Lost, sp)
		default:
			kept = append(kept, sp)
		}
	}
	ld.candidates = kept
	ld.newly, ld.lost = res.Newly, res.Lost
	return res
}

// detectTimeLosses declares candidates lost by the time threshold alone
// (called when the loss timer fires). The result is valid until the
// detector's next onAck or detectTimeLosses.
func (ld *lossDetector) detectTimeLosses(now sim.Time, lossDelay time.Duration) []*sentPacket {
	lost := ld.lost[:0]
	kept := ld.candidates[:0]
	for _, sp := range ld.candidates {
		if now.Sub(sp.sentAt) >= lossDelay {
			ld.remove(sp)
			lost = append(lost, sp)
		} else {
			kept = append(kept, sp)
		}
	}
	ld.candidates = kept
	ld.lost = lost
	return lost
}

// earliestLossTime returns when the earliest remaining candidate crosses
// the time threshold, for arming the loss timer.
func (ld *lossDetector) earliestLossTime(lossDelay time.Duration) (sim.Time, bool) {
	if len(ld.candidates) == 0 {
		return 0, false
	}
	earliest := ld.candidates[0].sentAt
	for _, sp := range ld.candidates[1:] {
		if sp.sentAt < earliest {
			earliest = sp.sentAt
		}
	}
	return earliest.Add(lossDelay), true
}

// oldestEliciting returns the oldest unacked ack-eliciting packet, for
// PTO probes.
func (ld *lossDetector) oldestEliciting() *sentPacket {
	for _, sp := range ld.candidates {
		if sp.ackEliciting {
			return sp
		}
	}
	for i := range ld.sent.Len() {
		if sp := *ld.sent.At(i); sp.ackEliciting {
			return sp
		}
	}
	return nil
}
