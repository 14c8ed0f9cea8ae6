// Command testtime reads the event stream of `go test -json` on stdin and
// prints the wall time of every package, slowest first, then the ten
// slowest tests:
//
//	go test -json -count=1 ./... | go run ./cmd/internal/testtime
//
// `make testtime` runs exactly that (TESTFLAGS=-race adds the race
// detector). A test's time is its Elapsed as go test reports it: a
// subtest is listed under its full name beside its parent, whose time
// includes it unless it is parallel. Packages run concurrently, so their sum is more
// than the suite's wall time. Lines that are not test events, such as
// build errors, go through to stderr.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// timing is one package's or one test's final event.
type timing struct {
	name    string
	seconds float64
	failed  bool
}

func main() {
	pkgs, tests, err := read(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "testtime:", err)
		os.Exit(1)
	}
	report(os.Stdout, pkgs, tests, 10)
}

// read collects the pass and fail events of packages and tests; anything
// that does not decode as an event is copied to passthru.
func read(r io.Reader, passthru io.Writer) (pkgs, tests []timing, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // a test may print long lines
	for sc.Scan() {
		var ev struct {
			Action, Package, Test string
			Elapsed               float64
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Action == "" {
			fmt.Fprintln(passthru, sc.Text())
			continue
		}
		if ev.Action != "pass" && ev.Action != "fail" {
			continue
		}
		t := timing{name: ev.Package, seconds: ev.Elapsed, failed: ev.Action == "fail"}
		if ev.Test == "" {
			pkgs = append(pkgs, t)
		} else {
			t.name += " " + ev.Test
			tests = append(tests, t)
		}
	}
	return pkgs, tests, sc.Err()
}

// report prints every package and the top slowest tests, slowest first.
func report(w io.Writer, pkgs, tests []timing, top int) {
	slowestFirst := func(a, b timing) int {
		return cmp.Or(cmp.Compare(b.seconds, a.seconds), cmp.Compare(a.name, b.name))
	}
	slices.SortFunc(pkgs, slowestFirst)
	slices.SortFunc(tests, slowestFirst)
	var sum float64
	fmt.Fprintf(w, "%8s  %s\n", "wall s", "package")
	for _, p := range pkgs {
		sum += p.seconds
		fmt.Fprintf(w, "%8.2f  %s%s\n", p.seconds, p.name, failMark(p))
	}
	fmt.Fprintf(w, "%8.2f  sum of %d packages\n", sum, len(pkgs))
	tests = tests[:min(top, len(tests))]
	fmt.Fprintf(w, "\n%8s  slowest %d tests\n", "wall s", len(tests))
	for _, t := range tests {
		fmt.Fprintf(w, "%8.2f  %s%s\n", t.seconds, t.name, failMark(t))
	}
}

func failMark(t timing) string {
	if t.failed {
		return " FAIL"
	}
	return ""
}
