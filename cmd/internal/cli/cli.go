// Package cli is the command surface: the bodies of the seven commands
// behind one flag binder and one exit code. Each cmd/<name>/main.go is a
// cli.Main("<name>") call, so the commands are tested here as one table.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"starlinkperf/internal/core"
)

var commands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"errant-export":  errantExport,
	"pingmon":        pingmon,
	"quicbench":      quicbench,
	"speedtest":      speedtest,
	"starlink-bench": starlinkBench,
	"tracebox":       tracebox,
	"webbench":       webbench,
}

// Main runs the named command on the process arguments. Any error — a bad
// flag, a bad value, an unwritable output — is printed and exits 2.
func Main(name string) {
	if err := Run(name, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// Run executes the named command with args. A rejected invocation returns
// before any campaign starts.
func Run(name string, args []string, stdout, stderr io.Writer) error {
	body, ok := commands[name]
	if !ok {
		return fmt.Errorf("unknown command %q", name)
	}
	return body(args, stdout, stderr)
}

// shared names the flags a command takes from the binder besides -seed.
type shared uint8

const (
	withWorkers shared = 1 << iota
	withTransport
	withTech
)

// flagSet is one command's flags: the command declares its own on it, the
// binder declares the ones commands share — the only place -seed,
// -workers, -transport and -tech are declared and validated.
type flagSet struct {
	*flag.FlagSet
	seed      *uint64
	workers   *int
	transport *string
	tech      *string
	// Tech is the vantage point -tech named, valid after parse.
	Tech core.Tech
}

func newFlagSet(name string, stderr io.Writer, with shared) *flagSet {
	fs := &flagSet{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError)}
	fs.SetOutput(stderr)
	fs.seed = fs.Uint64("seed", 1, "simulation seed")
	if with&withWorkers != 0 {
		fs.workers = fs.Int("workers", 0, "parallel campaign workers (0 = GOMAXPROCS)")
	}
	if with&withTransport != 0 {
		fs.transport = fs.String("transport", "paper", "transport stack: paper | modern")
	}
	if with&withTech != 0 {
		fs.tech = fs.String("tech", "starlink", "vantage point: starlink | satcom | wired")
	}
	return fs
}

// parse parses args and returns the testbed configuration and campaign
// options the shared flags describe, ready to run.
func (fs *flagSet) parse(args []string) (cfg core.Config, opts core.Options, err error) {
	if err = fs.Parse(args); err != nil {
		return
	}
	cfg = core.DefaultConfig()
	cfg.Seed = *fs.seed
	opts.Seed = *fs.seed
	if fs.workers != nil {
		if opts.Workers = *fs.workers; opts.Workers < 0 {
			err = fmt.Errorf("workers must be >= 0 (0 = GOMAXPROCS), got %d", opts.Workers)
			return
		}
	}
	if fs.transport != nil {
		if cfg.Transport, err = core.ParseTransport(*fs.transport); err != nil {
			return
		}
	}
	if fs.tech != nil {
		fs.Tech, err = core.ParseTech(*fs.tech)
	}
	return
}

// job is a sweep job whose body keeps its results in the caller's
// variables rather than returning them.
func job(name string, cfg core.Config, run func(tb *core.Testbed)) core.SweepJob {
	return core.SweepJob{Name: name, Cfg: cfg, Run: func(tb *core.Testbed) any {
		run(tb)
		return nil
	}}
}
