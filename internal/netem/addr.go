// Package netem is a deterministic packet-level network emulator driven by
// the sim discrete-event kernel.
//
// A Network is a set of Nodes connected by unidirectional Links. Links
// model a serialization rate, a (possibly time-varying) propagation delay,
// a DropTail egress queue, stochastic loss processes and outages. Nodes
// forward packets with static routes, decrement TTLs and emit ICMP-like
// errors, deliver to bound protocol handlers, and run middlebox Devices
// (NATs, PEPs, shapers) in transit — everything the paper's traceroute /
// Tracebox / ping methodology needs to observe.
//
// The emulator is intentionally not a byte-accurate reimplementation of
// IP: headers carry exactly the fields the reproduced experiments can
// observe (addresses, ports, TTL, a checksum that NATs must fix up, wire
// sizes for queueing/serialization) while payloads stay typed Go values
// owned by the transport implementations.
package netem

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4-style address. The numeric form matters only for
// display; comparability and NAT rewriting are what the emulator needs.
type Addr uint32

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netem: bad address %q", s)
	}
	var a Addr
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("netem: bad address %q", s)
		}
		a = a<<8 | Addr(v)
	}
	return a, nil
}

// MustParseAddr is ParseAddr for constant inputs; it panics on error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}
