package measure

import "starlinkperf/internal/sim"

// LogSizes exposes logSizes to the external tests that run whole
// campaigns (internal/core imports this package).
var LogSizes = logSizes

// EchoPoolStats exposes the counters of p's echo-record freelist to the
// external tests that run whole campaigns.
func EchoPoolStats(p *Prober) sim.PoolStats { return p.echoFree.Stats() }
