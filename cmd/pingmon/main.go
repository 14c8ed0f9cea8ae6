// Command pingmon runs the anchor latency monitor (Figures 1 and 2): it
// pings the 11-anchor fleet from PC-Starlink on the paper's cadence and
// prints the per-anchor distributions and the European timeline. With
// -reps > 1 it merges several independent repetitions, sharded across
// -workers goroutines with deterministic per-shard seeds.
package main

import "starlinkperf/cmd/internal/cli"

func main() { cli.Main("pingmon") }
