// Command quicbench runs the paper's QUIC workloads from PC-Starlink —
// bulk H3-like transfers or the 25-messages-per-second session — and
// reports RTT distributions and capture-based loss accounting. With
// -pcap it also writes the receiver capture as a libpcap file.
// Transfers and sessions shard across -workers goroutines, each on its
// own deterministically seeded testbed.
package main

import "starlinkperf/cmd/internal/cli"

func main() { cli.Main("quicbench") }
