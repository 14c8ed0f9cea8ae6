// Command tracebox runs the §3.5 middlebox audit — traceroute, header
// diffing against ICMP quotes, NAT-level counting, and split-proxy
// detection — from a chosen vantage point.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"starlinkperf/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracebox", flag.ContinueOnError)
	fs.SetOutput(stderr)
	techName := fs.String("tech", "starlink", "vantage point: starlink | satcom | wired")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tech, err := core.ParseTech(*techName)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	tb := core.NewTestbed(cfg)
	audit := tb.RunMiddleboxAudit(tech)
	var out strings.Builder
	core.RenderMiddleboxAudit(&out, *techName, audit)
	_, err = io.WriteString(stdout, out.String())
	return err
}
