package core

import (
	"testing"
	"time"
)

// TestSizeLadder pins every report size to the literal it had when the
// ladder moved here from starlink-bench: the quick sizes, and scales 1, 2,
// 4 and 20, which reach the 5-minute latency interval (scale 4) and every
// cap — 150 days of latency, 10 Wehe repeats and a 24 h fleet horizon.
func TestSizeLadder(t *testing.T) {
	const (
		m, h, d = time.Minute, time.Hour, 24 * time.Hour
		mb      = 1 << 20
	)
	// Columns in Sizes field order: latency span and interval; H3 down,
	// up and size; message sessions and length; speedtests Starlink and
	// SatCom; web visits, Wehe repeats, wired baseline; fleet terminals
	// and span.
	for _, tc := range []struct {
		name      string
		got, want Sizes
	}{
		{"quick", QuickSizes(), Sizes{6 * h, 30 * m, 1, 1, 10 * mb, 1, m, 2, 2, 4, 1, 1, 10000, 2 * h}},
		{"scale 1", ScaleSizes(1), Sizes{10 * d, 30 * m, 6, 4, 100 * mb, 4, 2 * m, 16, 8, 40, 2, 4, 20000, 6 * h}},
		{"scale 2", ScaleSizes(2), Sizes{20 * d, 30 * m, 12, 8, 100 * mb, 8, 2 * m, 32, 16, 80, 4, 4, 20000, 12 * h}},
		{"scale 4", ScaleSizes(4), Sizes{40 * d, 5 * m, 24, 16, 100 * mb, 16, 2 * m, 64, 32, 160, 8, 4, 20000, 24 * h}},
		{"scale 20", ScaleSizes(20), Sizes{150 * d, 5 * m, 120, 80, 100 * mb, 80, 2 * m, 320, 160, 800, 10, 4, 20000, 24 * h}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, tc.got, tc.want)
		}
	}
}
