// Command speedtest runs Ookla-style measurements (closest-server
// selection, parallel TCP connections) from one of the three vantage
// points. The tests fan out across -workers goroutines, one
// deterministically seeded testbed per shard.
package main

import "starlinkperf/cmd/internal/cli"

func main() { cli.Main("speedtest") }
