package quic

// ZeroPageIsZero reports whether the zero page, which every filler and
// CRYPTO payload of every connection aliases, still holds only zeros. It
// is for the external tests that drive the workloads of internal/measure,
// which imports this package.
func ZeroPageIsZero() bool {
	for _, b := range zeroPage {
		if b != 0 {
			return false
		}
	}
	return true
}
