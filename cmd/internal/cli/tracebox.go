package cli

import (
	"io"
	"strings"

	"starlinkperf/internal/core"
)

// tracebox runs the §3.5 middlebox audit from one vantage point.
func tracebox(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("tracebox", stderr, withTech)
	cfg, _, err := fs.parse(args)
	if err != nil {
		return err
	}
	audit := core.NewTestbed(cfg).RunMiddleboxAudit(fs.Tech)
	var out strings.Builder
	core.RenderMiddleboxAudit(&out, fs.Tech.String(), audit)
	_, err = io.WriteString(stdout, out.String())
	return err
}
