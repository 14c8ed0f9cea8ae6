package cli

import (
	"fmt"
	"io"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/stats"
)

// speedtest runs Ookla-style measurements from one vantage point.
func speedtest(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("speedtest", stderr, withWorkers|withTransport|withTech)
	count := fs.Int("count", 10, "number of tests")
	gap := fs.Duration("gap", 30*time.Minute, "virtual time between tests")
	conns := fs.Int("conns", 4, "parallel TCP connections")
	cfg, opts, err := fs.parse(args)
	if err != nil {
		return err
	}
	if *count < 1 || *conns < 1 {
		return fmt.Errorf("count and conns must be >= 1")
	}
	if *gap < 0 {
		return fmt.Errorf("gap must not be negative, got %v", *gap)
	}
	cfg.Speedtest = measure.DefaultSpeedtestConfig()
	cfg.Speedtest.Connections = *conns

	fmt.Fprintf(stdout, "speedtest from pc-%s (%d tests, %d connections):\n", fs.Tech, *count, *conns)

	results := core.RunSpeedtestCampaignParallel(cfg, fs.Tech, *count, *gap, opts)
	var down, up []float64
	for i, r := range results {
		fmt.Fprintf(stdout, "  #%02d  server=%-14s ping=%-8s down=%7.1f Mbit/s  up=%6.1f Mbit/s\n",
			i+1, r.Server, r.PingRTT.Round(100*time.Microsecond), r.DownloadMbps, r.UploadMbps)
		down = append(down, r.DownloadMbps)
		up = append(up, r.UploadMbps)
	}
	d, u := stats.Summarize(down), stats.Summarize(up)
	stats.Fprintf(stdout, "download: med=%.1f p25=%.1f p75=%.1f max=%.1f Mbit/s\n", d.P50, d.P25, d.P75, d.Max)
	_, err = stats.Fprintf(stdout, "upload:   med=%.1f p25=%.1f p75=%.1f max=%.1f Mbit/s\n", u.P50, u.P25, u.P75, u.Max)
	return err
}
