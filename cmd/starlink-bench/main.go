// Command starlink-bench runs the full measurement campaign against the
// emulated testbed and prints every table and figure the paper reports.
//
// Scale is controlled by -scale: 1 is a quick pass (~1 minute of wall
// time), larger values lengthen campaigns towards the paper's sample
// sizes (RTT-sample counts in the millions need -scale 8 and some
// patience). The independent campaigns fan out over -workers goroutines,
// each on its own deterministically seeded testbed, so the output is
// identical for any worker count.
package main

import "starlinkperf/cmd/internal/cli"

func main() { cli.Main("starlink-bench") }
