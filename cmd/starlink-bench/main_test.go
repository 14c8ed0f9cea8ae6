package main

import (
	"io"
	"strings"
	"testing"

	"starlinkperf/cmd/internal/cli"
)

func run(args []string, stdout, stderr io.Writer) error {
	return cli.Run("starlink-bench", args, stdout, stderr)
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
