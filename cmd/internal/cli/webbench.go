package cli

import (
	"fmt"
	"io"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/stats"
)

// webbench runs BrowserTime-like page visits from one vantage point
// (Figure 6).
func webbench(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("webbench", stderr, withWorkers|withTransport|withTech)
	visits := fs.Int("visits", 60, "number of page visits")
	verbose := fs.Bool("v", false, "print per-visit rows")
	cfg, opts, err := fs.parse(args)
	if err != nil {
		return err
	}
	if *visits < 1 {
		return fmt.Errorf("visits must be >= 1")
	}
	results := core.RunWebCampaignParallel(cfg, fs.Tech, *visits, 2*time.Second, opts)

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
	fmt.Fprintf(stdout, "%s: %d visits (%d failed)\n", fs.Tech, len(results), fails)
	stats.Fprintf(stdout, "  onLoad:     med=%.2fs IQR=[%.2f, %.2f]s\n", o.P50, o.P25, o.P75)
	stats.Fprintf(stdout, "  SpeedIndex: med=%.2fs IQR=[%.2f, %.2f]s\n", s.P50, s.P25, s.P75)
	_, err = stats.Fprintf(stdout, "  conn setup: mean=%.0fms med=%.0fms (n=%d)\n", st.Mean, st.P50, st.N)
	return err
}
