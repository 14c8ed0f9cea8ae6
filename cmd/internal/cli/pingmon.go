package cli

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"starlinkperf/internal/core"
)

// pingmon is the anchor latency monitor (Figures 1 and 2).
func pingmon(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("pingmon", stderr, withWorkers)
	days := fs.Int("days", 7, "campaign length in days")
	interval := fs.Duration("interval", 5*time.Minute, "probe round interval")
	growth := fs.Bool("scenario", false, "include the fleet-growth and load-episode scenario events")
	reps := fs.Int("reps", 1, "independent campaign repetitions to merge, sharded over -workers")
	cfg, opts, err := fs.parse(args)
	if err != nil {
		return err
	}
	if *days < 1 || *reps < 1 {
		return fmt.Errorf("days and reps must be >= 1")
	}
	if *interval <= 0 {
		return fmt.Errorf("interval must be positive, got %v", *interval)
	}
	// The clock must reach the round due after the span, plus a minute.
	if maxDays := int64((math.MaxInt64 - *interval - time.Minute) / (24 * time.Hour)); int64(*days) > maxDays {
		return fmt.Errorf("days must be at most %d at this interval, or the simulated clock overflows, got %d", maxDays, *days)
	}
	if *growth {
		cfg = core.PaperScenario(cfg)
	}
	dur := time.Duration(*days) * 24 * time.Hour

	// One repetition runs on a testbed built from the seed itself, not
	// from shard 0's derived seed: the default output predates sharding.
	var lat *core.LatencyData
	if *reps > 1 {
		lat = core.RunLatencyCampaignParallel(cfg, *reps, dur, *interval, opts)
	} else {
		lat = core.NewTestbed(cfg).RunLatencyCampaign(dur, *interval)
	}

	var out strings.Builder
	core.RenderFigure1(&out, core.Figure1(lat, lat.Anchors))
	out.WriteString("\n")
	core.RenderFigure2(&out, core.Figure2(lat))
	_, err = fmt.Fprintf(stdout, "%s\nprobes sent=%d lost=%d (%.2f%%)\n",
		out.String(), lat.Sent, lat.Lost, 100*float64(lat.Lost)/float64(lat.Sent))
	return err
}
