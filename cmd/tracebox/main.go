// Command tracebox runs the §3.5 middlebox audit — traceroute, header
// diffing against ICMP quotes, NAT-level counting, and split-proxy
// detection — from a chosen vantage point.
package main

import "starlinkperf/cmd/internal/cli"

func main() { cli.Main("tracebox") }
