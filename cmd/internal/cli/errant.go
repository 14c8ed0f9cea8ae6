package cli

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/errant"
)

// errantExport fits emulator profiles from a fresh campaign and writes
// them as JSON. The three source campaigns are independent, so they fan
// out over the sweep runner.
func errantExport(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("errant-export", stderr, withWorkers)
	outPath := fs.String("o", "errant-profiles.json", "output file")
	tests := fs.Int("tests", 12, "speedtests per technology to fit from")
	cfg, opts, err := fs.parse(args)
	if err != nil {
		return err
	}
	if *tests < 1 {
		return fmt.Errorf("tests must be >= 1")
	}

	fmt.Fprintln(stderr, "measuring starlink...")
	var (
		rtts, down, up []float64
		lossPct        float64
		stOK           int
	)
	core.RunSweep([]core.SweepJob{
		job("latency", cfg, func(tb *core.Testbed) {
			lat := tb.RunLatencyCampaign(12*time.Hour, 10*time.Minute)
			for _, s := range lat.EuropeanSeries().Samples() {
				rtts = append(rtts, s.Value)
			}
		}),
		job("speedtest", cfg, func(tb *core.Testbed) {
			for _, r := range tb.RunSpeedtestCampaign(core.TechStarlink, *tests, 30*time.Minute) {
				// A test whose server selection failed (all probe pings
				// lost, e.g. during an outage) reports zero throughput;
				// it must not enter the fit.
				if r.DownloadMbps <= 0 {
					continue
				}
				down = append(down, r.DownloadMbps)
				up = append(up, r.UploadMbps)
				stOK++
			}
		}),
		job("messages", cfg, func(tb *core.Testbed) {
			lossPct = 100 * tb.RunMessagesCampaign(4, 2*time.Minute, true).LossRatio()
		}),
	}, opts)
	fmt.Fprintf(stderr, "speedtest: %d/%d tests succeeded\n", stOK, *tests)

	profiles := errant.Builtin()
	profiles["starlink-fitted"] = errant.Fit("starlink-fitted", down, up, rtts, 7, lossPct)

	data, err := errant.MarshalProfiles(profiles)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d profiles to %s\n", len(profiles), *outPath)
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	var werr error
	for _, name := range names {
		p := profiles[name]
		if _, err := fmt.Fprintf(stdout, "  %-16s down~%.0f up~%.1f rtt~%.0fms loss=%.2f%%\n",
			name, p.DownMbps.Median(), p.UpMbps.Median(), p.RTTms.Median(), p.LossPct); err != nil {
			werr = err
		}
	}
	return werr
}
