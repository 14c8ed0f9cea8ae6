package cli

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/obs"
)

// starlinkBench runs the paper's evaluation (core.RunReport) at the sizes
// its flags select and prints every table and figure the paper reports.
func starlinkBench(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("starlink-bench", stderr, withWorkers|withTransport)
	scale := fs.Int("scale", 1, "campaign scale factor")
	quick := fs.Bool("quick", false, "tiny smoke-sized campaigns for CI (ignores -scale)")
	fleetTerminals := fs.Int("fleet.terminals", 0, "override the fleet scenario's terminal count (0 = profile default); the partitioned epoch campaign is bit-identical for any worker count at any size")
	tracePath := fs.String("trace", "", "write the event trace here (.jsonl extension selects JSON Lines, anything else the OTR1 binary format)")
	metricsJSON := fs.String("metrics.json", "", "write the per-shard + merged metrics registry as JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaigns to this file")
	memProfile := fs.String("memprofile", "", "write a post-run heap profile to this file")
	cfg, opts, err := fs.parse(args)
	if err != nil {
		return err
	}
	if *scale < 1 {
		return fmt.Errorf("scale must be >= 1")
	}
	// The fleet indexes its terminals with int32 offsets.
	if *fleetTerminals < 0 || *fleetTerminals > math.MaxInt32 {
		return fmt.Errorf("fleet.terminals must be in [0, %d] (0 selects the default), got %d", math.MaxInt32, *fleetTerminals)
	}
	sz := core.ScaleSizes(*scale)
	if *quick {
		sz = core.QuickSizes()
	}
	if *fleetTerminals > 0 {
		sz.FleetTerminals = *fleetTerminals
	}

	// Every file the run writes opens before any campaign runs: an
	// unwritable path costs milliseconds, not the whole run.
	var files [4]*os.File
	for i, o := range [4][2]string{{"cpuprofile", *cpuProfile}, {"trace", *tracePath}, {"metrics.json", *metricsJSON}, {"memprofile", *memProfile}} {
		if files[i], err = createOutput(o[0], o[1]); err != nil {
			return err
		}
		defer files[i].Close()
	}
	cpuFile, traceFile, metricsFile, memFile := files[0], files[1], files[2], files[3]
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// Observability is collected only when an export flag will consume
	// it, so plain runs keep the disabled single-branch fast path.
	if traceFile != nil || metricsFile != nil {
		opts.Obs = obs.NewCollector()
	}
	opts.Progress = func(done, total int) {
		fmt.Fprintf(stderr, "campaigns: %d/%d done\n", done, total)
	}
	fmt.Fprintf(stderr, "running the report's campaigns on %d workers, then the fleet (%d terminals over %v) scenario...\n",
		opts.WorkerCount(), sz.FleetTerminals, sz.FleetSpan)
	report := core.RunReport(cfg, sz, opts)

	// Engine telemetry, on stderr only and never part of the byte-diffed
	// report or exports: a queue twenty thousand timers deep, or a job
	// that runs alone at the end of the sweep, shows without a profiler.
	var busy time.Duration
	for _, j := range report.Jobs {
		busy += j.Wall
		fmt.Fprintf(stderr, "scheduler: %-18s %9d events, queue peak %d, wall %.3fs\n", j.Name, j.Events, j.QueuePeak, j.Wall.Seconds())
	}
	fmt.Fprintf(stderr, "sweep: makespan %.3fs, busy %.3fs, imbalance %.2f (workers*makespan/busy)\n", report.Makespan.Seconds(),
		busy.Seconds(), float64(min(opts.WorkerCount(), len(report.Jobs)))*report.Makespan.Seconds()/busy.Seconds())
	fl := report.Fleet
	fmt.Fprintf(stderr, "fleet: %d terminals, %d epochs, wall %.3fs, %.0f µs/epoch\n", fl.Terminals, fl.Epochs,
		report.FleetWall.Seconds(), float64(report.FleetWall.Microseconds())/float64(max(1, fl.Epochs)))

	if err := report.Render(stdout); err != nil {
		return err
	}

	if traceFile != nil {
		blob := opts.Obs.ExportTraceJSONL()
		if !strings.HasSuffix(*tracePath, ".jsonl") {
			blob = opts.Obs.ExportTraceBinary()
		}
		if err := writeOutput(traceFile, blob); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %s (%d bytes)\n", *tracePath, len(blob))
		if over := opts.Obs.Overwritten(); over != "" {
			fmt.Fprintf(stderr, "trace: incomplete, full rings overwrote %s\n", over)
		}
	}
	if metricsFile != nil {
		if err := writeOutput(metricsFile, opts.Obs.ExportMetricsJSON()); err != nil {
			return fmt.Errorf("metrics.json: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *metricsJSON)
	}

	if memFile != nil {
		runtime.GC() // materialize final live-set statistics
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := memFile.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// createOutput opens the file a flag names for writing, or returns nil
// when the flag is unset. A nil *os.File is safe to Close.
func createOutput(flagName, path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	return f, nil
}

// writeOutput writes blob to a file createOutput opened and closes it.
func writeOutput(f *os.File, blob []byte) error {
	if _, err := f.Write(blob); err != nil {
		return err
	}
	return f.Close()
}
