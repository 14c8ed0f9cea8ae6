// Command webbench runs BrowserTime-like page visits over the website
// corpus from a chosen vantage point and reports onLoad and SpeedIndex
// distributions (Figure 6). Visits shard across -workers goroutines,
// each on its own deterministically seeded testbed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("webbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	techName := fs.String("tech", "starlink", "vantage point: starlink | satcom | wired")
	visits := fs.Int("visits", 60, "number of page visits")
	seed := fs.Uint64("seed", 1, "simulation seed")
	verbose := fs.Bool("v", false, "print per-visit rows")
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = GOMAXPROCS)")
	transport := fs.String("transport", "paper", "transport profile: paper | modern | toggle list (bbr,pacing,zerortt,migration,minrtt,idledecay)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tech, err := core.ParseTech(*techName)
	if err != nil {
		return err
	}
	if *visits < 1 {
		return fmt.Errorf("visits must be >= 1")
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	profile, err := core.ParseTransport(*transport)
	if err != nil {
		return err
	}
	cfg.Transport = profile
	opts := core.Options{Workers: *workers, Seed: *seed}
	results := core.RunWebCampaignParallel(cfg, tech, *visits, 2*time.Second, opts)

	var onload, si, setup []float64
	fails := 0
	for i, v := range results {
		if v.Failed {
			fails++
			continue
		}
		if *verbose {
			fmt.Fprintf(stdout, "  visit %3d site-rank=%3d objects=%3d conns=%2d onLoad=%6.2fs SI=%6.2fs\n",
				i+1, v.Site.Rank, len(v.Site.Objects), v.Connections, v.OnLoad.Seconds(), v.SpeedIndex.Seconds())
		}
		onload = append(onload, v.OnLoad.Seconds())
		si = append(si, v.SpeedIndex.Seconds())
		for _, d := range v.ConnSetupTimes {
			setup = append(setup, d.Seconds()*1000)
		}
	}
	o, s, st := stats.Summarize(onload), stats.Summarize(si), stats.Summarize(setup)
	fmt.Fprintf(stdout, "%s: %d visits (%d failed)\n", *techName, len(results), fails)
	fmt.Fprintf(stdout, "  onLoad:     med=%.2fs IQR=[%.2f, %.2f]s\n", o.P50, o.P25, o.P75)
	fmt.Fprintf(stdout, "  SpeedIndex: med=%.2fs IQR=[%.2f, %.2f]s\n", s.P50, s.P25, s.P75)
	_, err = fmt.Fprintf(stdout, "  conn setup: mean=%.0fms med=%.0fms (n=%d)\n", st.Mean, st.P50, st.N)
	return err
}
