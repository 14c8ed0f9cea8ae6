// Package sim implements a deterministic discrete-event simulation kernel.
//
// All simulated components share a single virtual clock owned by a
// Scheduler. Events are callbacks scheduled at absolute virtual times; the
// scheduler runs them in time order (FIFO among equal timestamps) and the
// clock jumps instantaneously between events, so five months of simulated
// measurements execute in seconds of wall time.
//
// Determinism is a design requirement: every stochastic component draws
// from a named RNG stream derived from the scheduler seed, so a simulation
// is reproducible bit-for-bit from (seed, program). Nothing in this package
// reads wall-clock time.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute instant on the virtual clock, in nanoseconds since
// the start of the simulation. It is intentionally not time.Time: virtual
// time has no time zone, no wall-clock meaning, and arithmetic on it must
// be explicit.
type Time int64

// Common durations re-exported so simulation code does not need to import
// both sim and time for the usual units.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
	Hour        = time.Hour
)

// MaxTime is the largest representable virtual instant.
const MaxTime = Time(1<<63 - 1)

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the instant expressed in seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the instant as a duration since simulation start, which is
// the most readable form for logs and test failures.
func (t Time) String() string {
	return fmt.Sprintf("T+%s", time.Duration(t))
}
