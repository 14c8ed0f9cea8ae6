package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starlinkperf/cmd/internal/cli"
)

func run(args []string, stdout, stderr io.Writer) error {
	return cli.Run("starlink-bench", args, stdout, stderr)
}

// TestRunVariantMatrix is the report-level equivalence proof: the quick
// report on one worker against a row with every result-neutral axis
// flipped at once — eight workers (campaign shards and traffic scenario
// shards alike), the paper transport selected explicitly. Figures, event trace
// and metrics registry must come out byte-identical. A difference here
// says only that some axis leaks; the per-stage tests
// (TestSweepWorkerInvariance, TestFleetScenarioWorkerInvariance,
// TestFleetTrafficScenarioWorkerInvariance, TestTransportPaperBitIdentical,
// TestEpochCampaignWorkerInvariance) say which. A new result-neutral
// option is one more flag on the flipped row, or one more row.
func TestRunVariantMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("two quick reports take ~7s")
	}
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	rows := []struct {
		name string
		args []string
	}{
		// The profiles ride the baseline row: they must be written, and
		// must not change a byte of the report.
		{"baseline", []string{"-workers", "1", "-cpuprofile", cpuPath, "-memprofile", memPath}},
		{"flipped", []string{"-workers", "8", "-transport", "paper"}},
	}
	// What each row produced, by artifact name. stderr is kept apart: it
	// names the worker count.
	got := make([]map[string]string, len(rows))
	stderrs := make([]string, len(rows))
	t.Run("rows", func(t *testing.T) {
		for i, row := range rows {
			t.Run(row.name, func(t *testing.T) {
				t.Parallel()
				tracePath := filepath.Join(dir, row.name+".trace.bin")
				metricsPath := filepath.Join(dir, row.name+".metrics.json")
				args := append([]string{"-quick", "-trace", tracePath, "-metrics.json", metricsPath}, row.args...)
				var out, errOut strings.Builder
				if err := run(args, &out, &errOut); err != nil {
					t.Fatalf("run %v: %v\nstderr:\n%s", args, err, errOut.String())
				}
				got[i] = map[string]string{"figures": out.String()}
				stderrs[i] = errOut.String()
				for name, path := range map[string]string{"-trace": tracePath, "-metrics.json": metricsPath} {
					blob, err := os.ReadFile(path)
					if err != nil || len(blob) == 0 {
						t.Fatalf("%s export: %d bytes, %v", name, len(blob), err)
					}
					got[i][name] = string(blob)
				}
			})
		}
	})
	if t.Failed() {
		return
	}

	base := got[0]
	for i, row := range rows[1:] {
		for name, want := range base {
			if got[i+1][name] != want {
				t.Errorf("%s: %s differs from the baseline row", row.name, name)
			}
		}
	}

	for _, want := range []string{
		"Table 1", "Figure 1", "Figure 2", "Figure 3", "Table 2",
		"Figure 5", "Figure 6", "Wired-baseline H3 downloads",
		"starlink-fleet scenario", "high-north", "starlink-fleet traffic scenario",
	} {
		if !strings.Contains(base["figures"], want) {
			t.Errorf("report missing %q", want)
		}
	}
	if !strings.Contains(stderrs[0], "campaigns:") {
		t.Error("progress lines missing from stderr")
	}
	for name, p := range map[string]string{"cpuprofile": cpuPath, "memprofile": memPath} {
		if st, err := os.Stat(p); err != nil {
			t.Errorf("%s not written: %v", name, err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-scale", "0"}, &out, &errOut); err == nil {
		t.Error("scale 0 accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out, &errOut); err == nil {
		t.Error("unknown flag accepted")
	}
	// The fast-forward is not an option: the flag that once switched it off
	// is unknown like any other.
	if err := run([]string{"-quick", "-fidelity", "full"}, &out, &errOut); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-fidelity full: %v, want an unknown-flag error", err)
	}
	// The profile file opens before any campaign runs, so this fails fast.
	if err := run([]string{"-cpuprofile", "/no/such/dir/cpu.pprof"}, &out, &errOut); err == nil {
		t.Error("unwritable cpuprofile accepted")
	}
	// So do the export files and the heap profile, and a negative count is not another spelling
	// of "default": an error before the first campaign starts, not after
	// the whole run.
	var early, earlyErr strings.Builder
	for _, args := range [][]string{
		{"-trace", "/no/such/dir/trace.bin"},
		{"-metrics.json", "/no/such/dir/metrics.json"},
		{"-memprofile", "/no/such/dir/mem.pprof"},
		{"-workers", "-1"},
		{"-fleet.terminals", "-1"},
	} {
		if err := run(append([]string{"-quick"}, args...), &early, &earlyErr); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if early.Len() != 0 || strings.Contains(earlyErr.String(), "running") {
		t.Errorf("a rejected invocation got as far as the campaigns:\n%s", earlyErr.String())
	}
}
