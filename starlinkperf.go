// Package starlinkperf reproduces "A First Look at Starlink Performance"
// (Michel, Trevisan, Giordano, Bonaventure — IMC '22) as a deterministic
// simulation: a LEO-constellation-backed emulated testbed with the
// paper's three vantage points (Starlink, GEO SatCom with a dual PEP,
// wired campus), the measurement tools it used (ping, traceroute,
// Tracebox, an Ookla-like speedtest, QUIC bulk and message workloads, a
// BrowserTime-like web QoE harness, a Wehe-like traffic-discrimination
// detector), and campaign drivers that regenerate every table and figure
// of the paper's evaluation.
//
// Quick start:
//
//	tb := starlinkperf.NewTestbed(starlinkperf.DefaultConfig())
//	lat := tb.RunLatencyCampaign(24*time.Hour, 5*time.Minute)
//	for _, row := range starlinkperf.Figure1(lat, tb.Anchors) {
//	    fmt.Println(row.Anchor, row.Summary)
//	}
//
// Everything runs on a virtual clock: months of measurements complete in
// seconds, and a fixed Config.Seed reproduces a campaign bit for bit.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package starlinkperf

import "starlinkperf/internal/core"

// Config parameterizes the testbed (seed, Starlink access model, SatCom
// model, transport stack, campaign scenario events). The web corpus is
// always the paper's top-120 sites.
type Config = core.Config

// Testbed is the wired emulation environment with its three vantage
// points and all destination infrastructure; the campaigns are its
// methods.
type Testbed = core.Testbed

// Tech selects a vantage point for comparative campaigns.
type Tech = core.Tech

// Vantage points.
const (
	TechStarlink = core.TechStarlink
	TechSatCom   = core.TechSatCom
	TechWired    = core.TechWired
)

// DefaultConfig returns the calibrated testbed configuration (see
// EXPERIMENTS.md for the calibration record).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewTestbed builds the full emulated environment.
func NewTestbed(cfg Config) *Testbed { return core.NewTestbed(cfg) }

// What the examples compute from campaign results.
var (
	// Figure1 computes the per-anchor RTT distributions of a latency
	// campaign.
	Figure1 = core.Figure1
	// ConnSetupStats summarizes TCP+TLS connection setup over a web
	// campaign's visits.
	ConnSetupStats = core.ConnSetupStats
)
