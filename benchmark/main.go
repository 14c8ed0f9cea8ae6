// Command benchmark is the repository's benchmark: five campaign
// workloads, eight end-to-end numbers per workload and a per-layer
// ledger, all measured from outside the program by timing calls into the
// layers' public functions and reading the counters they already export.
// BENCHMARK.json at the repository root declares it; README.md in this
// directory gives the method.
//
//	go run ./benchmark --workload quic_bulk --seed 1 --seconds 12 --trace 0
//	go run ./benchmark --workload quic_bulk --out set.json   (adds the run to the set)
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// environment stamps a run with the machine and the pinned settings, so
// that two runs are only ever compared knowingly.
type environment struct {
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Profile    string  `json:"profile"`
	Workers    int     `json:"workers"`
	WorldSeed  uint64  `json:"world_seed"`
	Sizes      any     `json:"sizes"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
	Date       string  `json:"date"`
}

// resultFile is what --out writes: a set of runs, one per workload and
// kind. Every workload runs in a process of its own (a workload leaves the
// Go runtime in a state that moves the next one's numbers by up to 10 %),
// so a set is built by one invocation per workload adding to the file.
type resultFile struct {
	Schema string       `json:"schema"`
	Runs   []*runResult `json:"runs"`
}

const resultSchema = "starlink-benchmark/v1"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run: paper_report, quic_bulk, tcp_bulk, small_packets or fleet_scale")
	seed := fs.Uint64("seed", 1, "workload seed, the only workload input")
	seconds := fs.Float64("seconds", 12, "how long the timed iterations of one workload run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, everything off; 1: the traced run that fills the per-layer ledger")
	out := fs.String("out", "", "also add the machine-readable result to this set file (created if missing)")
	tiny := fs.Bool("tiny", false, "smoke-test sizes (numbers are not comparable with the full profile)")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		if err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive, --trace 0 or 1, and no further arguments")
		return 2
	}

	w := workloadByName(*workloadName)
	if _, declared := spec.workload(*workloadName); w == nil || !declared {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}
	base := fullProfile
	if *tiny {
		base = tinyProfile
	}
	p := base.generate(*seed)

	env := stampEnvironment(p, w, *seed, *seconds)
	var res *runResult
	if *trace == 1 {
		if res, err = runTraced(w, p, spec, *seconds); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	} else {
		res = runEndToEnd(w, p, spec, *seconds)
	}
	env.Load1End = loadAvg1()
	res.Env = env
	printRun(stdout, spec, res)
	if *out != "" {
		if err := addToSet(*out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	// The driver's line: the last line of standard output, one object.
	fmt.Fprintln(stdout, driverLine(res))
	if res.OpsFailed > 0 {
		fmt.Fprintln(stderr, "benchmark: operations failed on this tree (see FAILED above)")
		return 1
	}
	return 0
}

// addToSet writes the run into the set file, replacing an earlier run of
// the same workload and kind.
func addToSet(path string, res *runResult) error {
	set := &resultFile{Schema: resultSchema}
	if _, err := os.Stat(path); err == nil {
		if set, err = readResultFile(path); err != nil {
			return err
		}
	}
	kept := set.Runs[:0]
	for _, r := range set.Runs {
		if r.Workload != res.Workload || r.Traced != res.Traced {
			kept = append(kept, r)
		}
	}
	set.Runs = append(kept, res)
	blob, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

// driverLine is the one-line JSON object the benchmark contract asks for.
func driverLine(res *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.OpsFailed == 0, Attempted: max(res.OpsAttempted, 1), Failed: res.OpsFailed, Metrics: map[string]value{}}
	for name, mv := range res.Metrics {
		line.Metrics[name] = value{mv.Value, mv.Unit}
	}
	blob, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	return string(blob)
}

// printRun prints every metric of a run by name with its unit.
func printRun(w io.Writer, spec *benchSpec, res *runResult) {
	kind := "end-to-end (tracing, spans and observability off)"
	if res.Traced {
		kind = "traced (per-layer ledger)"
	}
	fmt.Fprintf(w, "== %s · %s · seed %d · %d workers · %d iterations in %.1f s\n",
		res.Workload, kind, res.Env.Seed, res.Env.Workers, res.Iterations, res.WallS)
	fmt.Fprintf(w, "   loop: %s\n", res.Loop)
	fmt.Fprintf(w, "   sim_digest %s   ops_attempted %d   ops_failed %d   failed_share %g\n",
		res.SimDigest, res.OpsAttempted, res.OpsFailed, res.FailedShare)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	list := spec.EndToEnd
	if res.Traced {
		list = spec.PerLayer
		fmt.Fprintf(w, "   stage self times cover %.1f %% of the least-covered iteration\n", 100*res.StageCoverage)
	}
	for _, m := range list {
		mv := res.Metrics[m.Name]
		note := ""
		if mv.N > 0 {
			note = fmt.Sprintf("   (q1 %.6g, q3 %.6g, n=%d; with n < 20 no higher percentile is supportable)", mv.Q1, mv.Q3, mv.N)
		}
		if mv.Unresolved {
			note += "   UNRESOLVED: iteration spread exceeds the bound"
		}
		fmt.Fprintf(w, "   %-44s %14.6g %-8s%s\n", m.Name, mv.Value, mv.Unit, note)
	}
	if !res.Traced {
		keys := make([]string, 0, len(res.Paper))
		for k := range res.Paper {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "   %-44s %14.6g (simulated, informational)\n", k, res.Paper[k])
		}
	}
}

func stampEnvironment(p *profile, w *workload, seed uint64, seconds float64) environment {
	return environment{
		Commit: headCommit(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed, Seconds: seconds, Profile: p.name,
		Workers: w.workers, WorldSeed: worldSeed, Sizes: p.describe()[w.name],
		Load1Start: loadAvg1(), Date: time.Now().UTC().Format(time.RFC3339),
	}
}

// headCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func headCommit() string {
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if blob, err := os.ReadFile(dir + "/" + strings.TrimPrefix(ref, "ref: ")); err == nil {
			return strings.TrimSpace(string(blob))
		}
	}
	return "unknown"
}
