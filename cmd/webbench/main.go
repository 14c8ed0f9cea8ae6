// Command webbench runs BrowserTime-like page visits over the website
// corpus from a chosen vantage point and reports onLoad and SpeedIndex
// distributions (Figure 6). Visits shard across -workers goroutines,
// each on its own deterministically seeded testbed.
package main

import "starlinkperf/cmd/internal/cli"

func main() { cli.Main("webbench") }
