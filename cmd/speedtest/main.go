// Command speedtest runs Ookla-style measurements (closest-server
// selection, parallel TCP connections) from one of the three vantage
// points. The tests fan out across -workers goroutines, one
// deterministically seeded testbed per shard.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/measure"
	"starlinkperf/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("speedtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	techName := fs.String("tech", "starlink", "vantage point: starlink | satcom | wired")
	count := fs.Int("count", 10, "number of tests")
	gap := fs.Duration("gap", 30*time.Minute, "virtual time between tests")
	conns := fs.Int("conns", 4, "parallel TCP connections")
	seed := fs.Uint64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = GOMAXPROCS)")
	transport := fs.String("transport", "paper", "transport profile: paper | modern | toggle list (bbr,pacing,zerortt,migration,minrtt,idledecay)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tech, err := core.ParseTech(*techName)
	if err != nil {
		return err
	}
	if *count < 1 || *conns < 1 {
		return fmt.Errorf("count and conns must be >= 1")
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	profile, err := core.ParseTransport(*transport)
	if err != nil {
		return err
	}
	cfg.Transport = profile
	cfg.Speedtest = measure.DefaultSpeedtestConfig()
	cfg.Speedtest.Connections = *conns

	fmt.Fprintf(stdout, "speedtest from pc-%s (%d tests, %d connections):\n", tech, *count, *conns)

	opts := core.Options{Workers: *workers, Seed: *seed}
	results := core.RunSpeedtestCampaignParallel(cfg, tech, *count, *gap, opts)
	var down, up []float64
	for i, r := range results {
		fmt.Fprintf(stdout, "  #%02d  server=%-14s ping=%-8s down=%7.1f Mbit/s  up=%6.1f Mbit/s\n",
			i+1, r.Server, r.PingRTT.Round(100*time.Microsecond), r.DownloadMbps, r.UploadMbps)
		down = append(down, r.DownloadMbps)
		up = append(up, r.UploadMbps)
	}
	d, u := stats.Summarize(down), stats.Summarize(up)
	fmt.Fprintf(stdout, "download: med=%.1f p25=%.1f p75=%.1f max=%.1f Mbit/s\n", d.P50, d.P25, d.P75, d.Max)
	_, err = fmt.Fprintf(stdout, "upload:   med=%.1f p25=%.1f p75=%.1f max=%.1f Mbit/s\n", u.P50, u.P25, u.P75, u.Max)
	return err
}
