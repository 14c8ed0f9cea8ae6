package quic

// rangeSet tracks a set of packet numbers as sorted, disjoint, closed
// ranges (ascending order). Receivers use it both to generate ACK frames
// and — because this implementation, like quiche, never skips packet
// numbers — to infer losses from the gaps, exactly the paper's download
// loss methodology.
type rangeSet struct {
	ranges []AckRange
}

// Insert adds pn to the set, merging adjacent ranges.
func (s *rangeSet) Insert(pn uint64) {
	// Fast path: extend or append at the tail (in-order arrival).
	if n := len(s.ranges); n > 0 {
		last := &s.ranges[n-1]
		if pn == last.Largest+1 {
			last.Largest = pn
			return
		}
		if pn > last.Largest {
			s.ranges = append(s.ranges, AckRange{Smallest: pn, Largest: pn})
			return
		}
	} else {
		s.ranges = append(s.ranges, AckRange{Smallest: pn, Largest: pn})
		return
	}

	// General path: locate the first range with Largest >= pn-1.
	lo, hi := 0, len(s.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ranges[mid].Largest+1 < pn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	if i == len(s.ranges) {
		s.ranges = append(s.ranges, AckRange{Smallest: pn, Largest: pn})
		return
	}
	r := &s.ranges[i]
	if pn >= r.Smallest && pn <= r.Largest {
		return // already present
	}
	switch {
	case pn+1 == r.Smallest:
		r.Smallest = pn
		// May now touch the previous range.
		if i > 0 && s.ranges[i-1].Largest+1 == r.Smallest {
			s.ranges[i-1].Largest = r.Largest
			s.ranges = append(s.ranges[:i], s.ranges[i+1:]...)
		}
	case pn == r.Largest+1:
		r.Largest = pn
		if i+1 < len(s.ranges) && s.ranges[i+1].Smallest == pn+1 {
			r.Largest = s.ranges[i+1].Largest
			s.ranges = append(s.ranges[:i+1], s.ranges[i+2:]...)
		}
	default:
		// Strictly inside a gap: insert a fresh range at i.
		s.ranges = append(s.ranges, AckRange{})
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = AckRange{Smallest: pn, Largest: pn}
	}
}

// Contains reports whether pn is in the set.
func (s *rangeSet) Contains(pn uint64) bool {
	lo, hi := 0, len(s.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ranges[mid].Largest < pn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.ranges) && pn >= s.ranges[lo].Smallest
}

// Count returns the number of packet numbers in the set.
func (s *rangeSet) Count() uint64 {
	var n uint64
	for _, r := range s.ranges {
		n += r.Largest - r.Smallest + 1
	}
	return n
}

// Largest returns the largest member; ok=false when empty.
func (s *rangeSet) Largest() (uint64, bool) {
	if len(s.ranges) == 0 {
		return 0, false
	}
	return s.ranges[len(s.ranges)-1].Largest, true
}

// Ranges returns the ranges ascending (shared slice; do not mutate).
func (s *rangeSet) Ranges() []AckRange { return s.ranges }

// AckRanges appends to dst up to maxRanges of the most recent ranges in
// the descending order ACK frames use.
func (s *rangeSet) AckRanges(dst []AckRange, maxRanges int) []AckRange {
	n := len(s.ranges)
	if maxRanges > 0 && n > maxRanges {
		n = maxRanges
	}
	for i := 0; i < n; i++ {
		dst = append(dst, s.ranges[len(s.ranges)-1-i])
	}
	return dst
}
