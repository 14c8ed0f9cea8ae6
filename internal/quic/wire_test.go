package quic

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	simt "starlinkperf/internal/sim"
)

func TestVarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v %= MaxVarint + 1
		b := AppendVarint(nil, v)
		if len(b) != VarintLen(v) {
			return false
		}
		got, n, err := ReadVarint(b)
		return err == nil && n == len(b) && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestVarintKnownEncodings(t *testing.T) {
	// Examples from RFC 9000 appendix A.1.
	cases := []struct {
		v    uint64
		want []byte
	}{
		{37, []byte{0x25}},
		{15293, []byte{0x7b, 0xbd}},
		{494878333, []byte{0x9d, 0x7f, 0x3e, 0x7d}},
		{151288809941952652, []byte{0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c}},
	}
	for _, c := range cases {
		if got := AppendVarint(nil, c.v); !bytes.Equal(got, c.want) {
			t.Errorf("encode(%d) = %x, want %x", c.v, got, c.want)
		}
	}
}

func TestVarintTruncated(t *testing.T) {
	full := AppendVarint(nil, 494878333)
	for i := 0; i < len(full); i++ {
		if _, _, err := ReadVarint(full[:i]); err == nil {
			t.Errorf("ReadVarint accepted %d of %d bytes", i, len(full))
		}
	}
}

func frameEqual(a, b Frame) bool { return reflect.DeepEqual(a, b) }

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		&PingFrame{},
		&PaddingFrame{Length: 5},
		&AckFrame{
			Ranges:   []AckRange{{Smallest: 90, Largest: 100}, {Smallest: 50, Largest: 80}, {Smallest: 10, Largest: 10}},
			AckDelay: 350 * time.Microsecond,
		},
		&CryptoFrame{Offset: 1200, Data: []byte("hello tls")},
		&StreamFrame{StreamID: 4, Offset: 77777, Data: []byte("payload bytes"), Fin: true},
		&StreamFrame{StreamID: 0, Offset: 0, Data: nil, Fin: true},
		&MaxDataFrame{Max: 10 << 20},
		&MaxStreamDataFrame{StreamID: 8, Max: 123456},
		&DataBlockedFrame{Limit: 999},
		&ConnectionCloseFrame{ErrorCode: 7, Reason: "done"},
	}
	for _, f := range frames {
		b := f.Append(nil)
		if len(b) != f.WireLen() {
			t.Errorf("%v: WireLen %d != encoded %d", f, f.WireLen(), len(b))
		}
		got, err := ParseFrames(b)
		if err != nil {
			t.Errorf("%v: parse error %v", f, err)
			continue
		}
		if len(got) != 1 {
			t.Errorf("%v: parsed %d frames", f, len(got))
			continue
		}
		// Normalize empty slices for comparison.
		if sf, ok := got[0].(*StreamFrame); ok && len(sf.Data) == 0 {
			sf.Data = nil
		}
		if !frameEqual(f, got[0]) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got[0], f)
		}
	}
}

func TestMultipleFramesInPayload(t *testing.T) {
	var b []byte
	b = (&PingFrame{}).Append(b)
	b = (&StreamFrame{StreamID: 0, Offset: 10, Data: []byte("abc")}).Append(b)
	b = (&PaddingFrame{Length: 3}).Append(b)
	frames, err := ParseFrames(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("parsed %d frames, want 3", len(frames))
	}
}

func TestParseFramesRejectsGarbage(t *testing.T) {
	if _, err := ParseFrames([]byte{0xff, 0x00}); err == nil {
		t.Error("unknown frame type accepted")
	}
	// Truncated STREAM frame.
	sf := (&StreamFrame{StreamID: 1, Offset: 5, Data: []byte("0123456789")}).Append(nil)
	if _, err := ParseFrames(sf[:len(sf)-4]); err == nil {
		t.Error("truncated stream frame accepted")
	}
}

func TestAckFrameContains(t *testing.T) {
	f := &AckFrame{Ranges: []AckRange{{Smallest: 10, Largest: 20}, {Smallest: 3, Largest: 5}}}
	for _, pn := range []uint64{10, 15, 20, 3, 5} {
		if !f.Contains(pn) {
			t.Errorf("Contains(%d) = false", pn)
		}
	}
	for _, pn := range []uint64{2, 6, 9, 21} {
		if f.Contains(pn) {
			t.Errorf("Contains(%d) = true", pn)
		}
	}
}

func TestAckFrameRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		// Build random disjoint descending ranges.
		n := 1 + r.IntN(8)
		pn := uint64(5 + r.IntN(1000))
		var ranges []AckRange
		for i := 0; i < n && pn > 4; i++ {
			length := uint64(r.IntN(20))
			if length+1 > pn {
				length = pn - 1
			}
			lo := pn - length
			ranges = append([]AckRange{{Smallest: lo, Largest: pn}}, ranges...)
			if lo < 13 {
				break
			}
			pn = lo - 2 - uint64(r.IntN(10))
		}
		// Descending order for the frame.
		desc := make([]AckRange, len(ranges))
		for i := range ranges {
			desc[i] = ranges[len(ranges)-1-i]
		}
		f := &AckFrame{Ranges: desc, AckDelay: time.Duration(r.IntN(100000)) * time.Microsecond}
		got, err := ParseFrames(f.Append(nil))
		if err != nil {
			t.Fatalf("trial %d: %v (frame %v)", trial, err, f)
		}
		if !reflect.DeepEqual(got[0], f) {
			t.Fatalf("trial %d mismatch:\n got %#v\nwant %#v", trial, got[0], f)
		}
	}
}

func TestPacketSerializeParse(t *testing.T) {
	h := PacketHeader{Handshake: true, ConnID: 0xdeadbeefcafe, Number: 42}
	frames := []Frame{&CryptoFrame{Offset: 0, Data: []byte("ch")}, &PingFrame{}}
	b := Serialize(h, frames)
	p, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Header != h {
		t.Errorf("header = %+v, want %+v", p.Header, h)
	}
	if len(p.Frames) != 2 {
		t.Errorf("frames = %d", len(p.Frames))
	}
	if p.Size != len(b) {
		t.Errorf("size = %d, want %d", p.Size, len(b))
	}
	if !p.AckEliciting() {
		t.Error("packet with CRYPTO+PING should be ack-eliciting")
	}
}

func TestParseRejectsShortAndBadFixedBit(t *testing.T) {
	if _, err := Parse([]byte{0x40}); err == nil {
		t.Error("short packet accepted")
	}
	b := Serialize(PacketHeader{ConnID: 1, Number: 1}, []Frame{&PingFrame{}})
	b[0] &^= 0x40
	if _, err := Parse(b); err == nil {
		t.Error("cleared fixed bit accepted")
	}
}

func TestRangeSetInsertProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		var s rangeSet
		ref := make(map[uint64]bool)
		for i := 0; i < 300; i++ {
			pn := uint64(r.IntN(150))
			s.Insert(pn)
			ref[pn] = true
		}
		// Invariants: sorted, disjoint, non-adjacent.
		rs := s.Ranges()
		for i := range rs {
			if rs[i].Smallest > rs[i].Largest {
				t.Fatalf("inverted range %+v", rs[i])
			}
			if i > 0 && rs[i].Smallest <= rs[i-1].Largest+1 {
				t.Fatalf("overlapping/adjacent ranges %+v %+v", rs[i-1], rs[i])
			}
		}
		// Exact membership.
		for pn := uint64(0); pn < 160; pn++ {
			if s.Contains(pn) != ref[pn] {
				t.Fatalf("Contains(%d) = %v, want %v (ranges %v)", pn, s.Contains(pn), ref[pn], rs)
			}
		}
		if int(s.Count()) != len(ref) {
			t.Fatalf("Count = %d, want %d", s.Count(), len(ref))
		}
	}
}

func TestRangeSetAckRangesOrder(t *testing.T) {
	var s rangeSet
	for _, pn := range []uint64{1, 2, 3, 10, 11, 20} {
		s.Insert(pn)
	}
	ar := s.AckRanges(nil, 2)
	if len(ar) != 2 {
		t.Fatalf("got %d ranges", len(ar))
	}
	if ar[0].Largest != 20 || ar[1].Largest != 11 {
		t.Errorf("AckRanges = %v, want most recent first", ar)
	}
	if l, ok := s.Largest(); !ok || l != 20 {
		t.Errorf("Largest = %v %v", l, ok)
	}
}

func TestRTTEstimator(t *testing.T) {
	var r RTTEstimator
	if r.Smoothed() != InitialRTT {
		t.Error("pre-sample smoothed should be InitialRTT")
	}
	r.Update(100*time.Millisecond, 0)
	if r.Smoothed() != 100*time.Millisecond || r.Min() != 100*time.Millisecond {
		t.Errorf("first sample: srtt=%v min=%v", r.Smoothed(), r.Min())
	}
	if r.Variance() != 50*time.Millisecond {
		t.Errorf("first variance = %v", r.Variance())
	}
	r.Update(200*time.Millisecond, 0)
	// srtt = 7/8*100 + 1/8*200 = 112.5ms
	if got := r.Smoothed(); got != 112500*time.Microsecond {
		t.Errorf("srtt = %v, want 112.5ms", got)
	}
	if r.Min() != 100*time.Millisecond {
		t.Errorf("min = %v", r.Min())
	}
	r.Update(80*time.Millisecond, 0)
	if r.Min() != 80*time.Millisecond {
		t.Errorf("min after lower sample = %v", r.Min())
	}
}

func TestRTTAckDelaySubtraction(t *testing.T) {
	var r RTTEstimator
	r.Update(100*time.Millisecond, 0)
	r.Update(150*time.Millisecond, 25*time.Millisecond)
	// Adjusted sample 125ms: srtt = 7/8*100 + 1/8*125 = 103.125ms
	if got := r.Smoothed(); got != 103125*time.Microsecond {
		t.Errorf("srtt = %v, want 103.125ms", got)
	}
	// Delay subtraction must not go below min.
	r2 := RTTEstimator{}
	r2.Update(100*time.Millisecond, 0)
	r2.Update(101*time.Millisecond, 50*time.Millisecond) // 101-50 < min
	if r2.Latest() != 101*time.Millisecond {
		t.Errorf("latest = %v", r2.Latest())
	}
}

func TestRTTLossDelayAndPTO(t *testing.T) {
	var r RTTEstimator
	r.Update(80*time.Millisecond, 0)
	if got, want := r.LossDelay(), 90*time.Millisecond; got != want {
		t.Errorf("loss delay = %v, want %v", got, want)
	}
	pto := r.PTO(25 * time.Millisecond)
	// 80 + 4*40 + 25 = 265ms
	if pto != 265*time.Millisecond {
		t.Errorf("PTO = %v, want 265ms", pto)
	}
}

func TestCubicSlowStartAndBackoff(t *testing.T) {
	c := NewCubic()
	w0 := c.Window()
	if !c.InSlowStart() {
		t.Fatal("should start in slow start")
	}
	var r RTTEstimator
	r.Update(50*time.Millisecond, 0)
	c.OnPacketAcked(0, 1350, &r)
	if c.Window() != w0+1350 {
		t.Errorf("slow start growth: %d -> %d", w0, c.Window())
	}
	// Loss halves-ish (beta 0.7) and exits slow start.
	c.OnCongestionEvent(simsec(1), simsec(0))
	if got := c.Window(); got != int(float64(w0+1350)*0.7) {
		t.Errorf("post-loss window = %d", got)
	}
	if c.InSlowStart() {
		t.Error("should have left slow start")
	}
	// Second loss within same recovery episode: no further reduction.
	w := c.Window()
	c.OnCongestionEvent(simsec(2), simsec(0))
	if c.Window() != w {
		t.Error("same-episode loss reduced window again")
	}
}

func simsec(sec int64) simt.Time { return simt.Time(sec) * simt.Time(time.Second) }
