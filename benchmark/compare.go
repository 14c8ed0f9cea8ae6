package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// verdict compares one end-to-end metric of one workload between two
// result sets A (before) and B (after).
//
//	same        the medians differ by no more than the bound
//	worse       B is worse than A by more than the bound
//	better      B is better than A by more than the bound
//	unresolved  either side's iterations spread (IQR/median) wider than
//	            the bound and the two sides' samples interleave, so the
//	            medians cannot tell the sides apart (not applied to
//	            setup_s, whose three samples start with the cold one)
func verdict(m metricSpec, a, b float64, samplesA, samplesB []float64) string {
	if a == 0 {
		return "unresolved"
	}
	// worse is B's change in the bad direction as a share of A.
	worse := (b - a) / a
	if m.Better == "higher" {
		worse = -worse
	}
	if spreadGuarded(m) && len(samplesA) > 0 && len(samplesB) > 0 &&
		(relSpread(samplesA) > m.Bound || relSpread(samplesB) > m.Bound) {
		apart := slices.Min(samplesB) > slices.Max(samplesA) || slices.Max(samplesB) < slices.Min(samplesA)
		if !apart {
			return "unresolved"
		}
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	}
	return "same"
}

// spreadGuarded reports whether the noise guard applies to the metric:
// every end-to-end metric but setup_s, whose few samples differ by design
// (the first set-up of a process is the cold one).
func spreadGuarded(m metricSpec) bool { return m.Name != "setup_s" }

func readResultFile(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	var f resultFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("compare: %s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// endToEndRun returns the file's untraced run of the workload.
func (f *resultFile) endToEndRun(workload string) *runResult {
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			return r
		}
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change and the bound, and a verdict. Workloads are never pooled.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	for _, ws := range spec.Workloads {
		ra, rb := fa.endToEndRun(ws.Name), fb.endToEndRun(ws.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "\n%s: missing from one set\n", ws.Name)
			continue
		}
		ea, eb := ra.Env, rb.Env
		fmt.Fprintf(w, "\n%s\n  A: commit %.12s, %d cores, %s, seed %d, load %.2f–%.2f\n  B: commit %.12s, %d cores, %s, seed %d, load %.2f–%.2f\n", ws.Name,
			ea.Commit, ea.NProc, ea.GoVersion, ea.Seed, ea.Load1Start, ea.Load1End,
			eb.Commit, eb.NProc, eb.GoVersion, eb.Seed, eb.Load1Start, eb.Load1End)
		if ea.NProc != eb.NProc || ea.GoVersion != eb.GoVersion || ea.Profile != eb.Profile || ea.Seed != eb.Seed {
			fmt.Fprintln(w, "  WARNING: the two runs differ in machine, Go version, size profile or seed; host-time verdicts mean little")
		}
		digest := "identical"
		if ra.SimDigest != rb.SimDigest {
			digest = "DIFFERS (" + ra.SimDigest + " vs " + rb.SimDigest + ")"
		}
		fmt.Fprintf(w, "  sim_digest %s; operations failed %d/%d vs %d/%d\n", digest,
			ra.OpsFailed, ra.OpsAttempted, rb.OpsFailed, rb.OpsAttempted)
		fmt.Fprintf(w, "  %-20s %14s %14s %9s %7s  %s\n", "metric", "A", "B", "change", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			a, b := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			v := verdict(m, a, b, ra.Samples[m.Name], rb.Samples[m.Name])
			change := 0.0
			if a != 0 {
				change = 100 * (b - a) / a
			}
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", m.Name, a, b, change, 100*m.Bound, v)
		}
	}
	return nil
}
