// Command errant-export fits data-driven emulator profiles (the paper's
// released artifact format) from a fresh campaign on the emulated testbed
// and writes them as JSON, alongside the built-in comparison profiles.
// The three source campaigns are independent, so they fan out across
// -workers goroutines via the deterministic sweep runner.
package main

import "starlinkperf/cmd/internal/cli"

func main() { cli.Main("errant-export") }
