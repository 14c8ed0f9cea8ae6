package quic

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"starlinkperf/internal/cc"
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

// decodeFrames runs the packet parser's frame decoder on a bare payload,
// into a parser of its own, so the frames are fresh and Data aliases b.
func decodeFrames(b []byte) ([]Frame, error) {
	var ps parser
	if err := ps.parseFrames(b); err != nil {
		return nil, err
	}
	return ps.pkt.Frames, nil
}

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
		got, err := decodeFrames(b)
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
	frames, err := decodeFrames(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("parsed %d frames, want 3", len(frames))
	}
}

func TestParseFramesRejectsGarbage(t *testing.T) {
	if _, err := decodeFrames([]byte{0xff, 0x00}); err == nil {
		t.Error("unknown frame type accepted")
	}
	// Truncated STREAM frame.
	sf := (&StreamFrame{StreamID: 1, Offset: 5, Data: []byte("0123456789")}).Append(nil)
	if _, err := decodeFrames(sf[:len(sf)-4]); err == nil {
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
		got, err := decodeFrames(f.Append(nil))
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

// The received-packet set stays sorted, disjoint and non-adjacent, with
// exact membership, whatever order and however often packets arrive.
func TestRangeSetInsertProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		c := fakeConn(false)
		ref := make(map[uint64]bool)
		for i := 0; i < 300; i++ {
			pn := uint64(r.IntN(150))
			c.handlePacket(&Packet{Header: PacketHeader{ConnID: 1, Number: pn}})
			ref[pn] = true
		}
		s := &c.recvSet
		rs := s.Spans()
		count := uint64(0)
		for i := range rs {
			if rs[i].Start >= rs[i].End {
				t.Fatalf("empty or inverted span %+v", rs[i])
			}
			if i > 0 && rs[i].Start <= rs[i-1].End {
				t.Fatalf("overlapping/adjacent spans %+v %+v", rs[i-1], rs[i])
			}
			count += rs[i].End - rs[i].Start
		}
		for pn := uint64(0); pn < 160; pn++ {
			if s.Covered(pn, pn+1) != ref[pn] {
				t.Fatalf("Covered(%d) = %v, want %v (spans %v)", pn, s.Covered(pn, pn+1), ref[pn], rs)
			}
		}
		if int(count) != len(ref) {
			t.Fatalf("count = %d, want %d", count, len(ref))
		}
	}
}

func TestRangeSetAckRangesOrder(t *testing.T) {
	c := fakeConn(false)
	for _, pn := range []uint64{1, 2, 3, 10, 11, 20} {
		c.handlePacket(&Packet{Header: PacketHeader{ConnID: 1, Number: pn}})
	}
	ack := c.buildAck()
	if ack == nil || len(ack.Ranges) != 3 {
		t.Fatalf("got ACK %v, want 3 ranges", ack)
	}
	if ar := ack.Ranges; ar[0].Largest != 20 || ar[1].Largest != 11 || ar[2].Largest != 3 {
		t.Errorf("ACK ranges = %v, want most recent first", ar)
	}
	if spans := c.recvSet.Spans(); spans[len(spans)-1].End-1 != 20 {
		t.Errorf("largest received = %d, want 20", spans[len(spans)-1].End-1)
	}
}

// buildAck reports the received-packet set as the ACK frame's ranges: the
// 32 most recent runs of packet numbers, descending, each a closed range,
// whatever order and however often the packets arrived. The oracle is the
// runs of a bitmap of what arrived. After every packet the frame encodes
// as the same ranges do without the connection's reused tail encoding.
func TestBuildAckRanges(t *testing.T) {
	check := func(t *testing.T, pns []uint64) {
		t.Helper()
		c := fakeConn(false)
		got := map[uint64]bool{}
		dups := uint64(0)
		for _, pn := range pns {
			if got[pn] {
				dups++
			}
			got[pn] = true
			c.handlePacket(&Packet{Header: PacketHeader{ConnID: 1, Number: pn}})
			ack := c.buildAck()
			fresh := &AckFrame{Ranges: ack.Ranges, AckDelay: ack.AckDelay}
			if enc := ack.Append(nil); !bytes.Equal(enc, fresh.Append(nil)) || ack.WireLen() != len(enc) {
				t.Fatalf("after packet %d: ACK %v encodes as %x (WireLen %d), want %x", pn, ack.Ranges, enc, ack.WireLen(), fresh.Append(nil))
			}
		}
		if c.Stats.DuplicatesRecv != dups {
			t.Errorf("DuplicatesRecv = %d, want %d", c.Stats.DuplicatesRecv, dups)
		}
		var runs []AckRange // ascending
		for pn := uint64(0); pn <= 1<<12; pn++ {
			switch {
			case !got[pn]:
			case len(runs) > 0 && runs[len(runs)-1].Largest+1 == pn:
				runs[len(runs)-1].Largest = pn
			default:
				runs = append(runs, AckRange{Smallest: pn, Largest: pn})
			}
		}
		var want []AckRange
		for i := len(runs) - 1; i >= 0 && len(want) < 32; i-- {
			want = append(want, runs[i])
		}
		ack := c.buildAck()
		if len(want) == 0 {
			if ack != nil {
				t.Fatalf("ACK %v with nothing received", ack.Ranges)
			}
			return
		}
		if ack == nil || !reflect.DeepEqual(ack.Ranges, want) {
			t.Fatalf("ACK ranges %v, want %v", ack, want)
		}
	}
	for name, pns := range map[string][]uint64{
		"none":                     nil,
		"most-recent-first":        {1, 2, 3, 10, 11, 20},
		"reordered-and-duplicated": {5, 3, 4, 4, 9, 0, 7, 8, 1, 2, 9},
		"more-than-32": func() (pns []uint64) {
			for pn := uint64(0); pn <= 100; pn += 2 {
				pns = append(pns, pn)
			}
			return pns
		}(),
	} {
		t.Run(name, func(t *testing.T) { check(t, pns) })
	}
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		space := 40 + r.IntN(400) // small spaces leave a few runs, large ones more than 32
		pns := make([]uint64, 300)
		for i := range pns {
			pns[i] = uint64(r.IntN(space))
		}
		t.Run("random", func(t *testing.T) { check(t, pns) })
	}
}

func TestRTTEstimator(t *testing.T) {
	var r cc.RTTEstimator
	if r.Smoothed() != cc.InitialRTT {
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
	var r cc.RTTEstimator
	r.Update(100*time.Millisecond, 0)
	r.Update(150*time.Millisecond, 25*time.Millisecond)
	// Adjusted sample 125ms: srtt = 7/8*100 + 1/8*125 = 103.125ms
	if got := r.Smoothed(); got != 103125*time.Microsecond {
		t.Errorf("srtt = %v, want 103.125ms", got)
	}
	// Delay subtraction must not go below min.
	r2 := cc.RTTEstimator{}
	r2.Update(100*time.Millisecond, 0)
	r2.Update(101*time.Millisecond, 50*time.Millisecond) // 101-50 < min
	if r2.Latest() != 101*time.Millisecond {
		t.Errorf("latest = %v", r2.Latest())
	}
}

func TestRTTLossDelayAndPTO(t *testing.T) {
	var r cc.RTTEstimator
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
