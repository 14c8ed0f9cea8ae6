package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/fleet"
)

// profile freezes the sizes of all five workloads. The full profile is
// what every reported number uses; tiny exists so the package's tests can
// smoke-run each workload in well under a second.
type profile struct {
	name string

	report campaignSizes // paper_report: the starlink-bench -quick list
	quic   campaignSizes // quic_bulk
	tcp    campaignSizes // tcp_bulk
	small  campaignSizes // small_packets

	// paper_report's fleet scenario and packet-level traffic scenario.
	reportFleetTerms   int
	reportFleetSpan    time.Duration
	reportTrafficTerms int
	reportTrafficSpan  time.Duration

	// fleet_scale: a standing fleet running epochs, plus one packet-level
	// traffic scenario per iteration.
	fleetTerms   int
	fleetEpochs  int
	trafficTerms int
	trafficSpan  time.Duration

	setupRepeats int           // set-ups per run; setup_s is their median
	probeRepeat  time.Duration // length of one repeat of an isolated probe
	probeRepeats int
	epochSamples int // individually timed epochs in the traced run
}

const fleetEpoch = 15 * time.Second

// iterOut is one iteration's outcome.
type iterOut struct {
	stages []*stageOut
	digest string
}

func (it *iterOut) ops() (attempted, failed int) {
	for _, o := range it.stages {
		attempted += o.attempted
		failed += o.failed()
	}
	return attempted, failed
}

// seal hashes the stages' result text, in stage order, into sim_digest.
func (it *iterOut) seal() {
	h := sha256.New()
	for _, o := range it.stages {
		fmt.Fprintf(h, "## %s\n", o.name)
		h.Write(o.dig.Bytes())
	}
	it.digest = hex.EncodeToString(h.Sum(nil)[:12])
}

// workload is one set of generated inputs. setup builds what stands
// across iterations; iterate runs one closed-loop iteration of fixed work
// (the next iteration starts when this one returns; there is no arrival
// schedule).
type workload struct {
	name    string
	workers int
	setup   func(e *env, p *profile, parent int) any
	iterate func(e *env, p *profile, state any, parent, iter int) *iterOut
	close   func(state any)
}

// guarded runs fn — a campaign job, a fleet scenario, the figure builders —
// under a span and a recover, and times it into o.
func guarded(e *env, o *stageOut, spanName string, parent, iter int, fn func()) {
	id := e.rec.begin(spanName, parent, iter)
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				o.ok, o.attempted = 0, max(o.attempted, 1)
				o.fail("panic: %v", r)
			}
		}()
		fn()
	}()
	o.wall = time.Since(start)
	e.rec.end(id)
}

// sweep runs the named campaign jobs through core.RunSweep under one span
// and returns their outputs and typed results.
func sweep(e *env, sz campaignSizes, jobs []string, parent, iter int) (*iterOut, *campaign) {
	c := &campaign{}
	stages := buildStages(sz, c, jobs)
	id := e.rec.begin("core.RunSweep", parent, iter)
	it := &iterOut{stages: runSweep(e, stages, id, iter)}
	e.rec.end(id)
	return it, c
}

// Most workloads keep nothing standing between iterations.
func noSetup(*env, *profile, int) any { return nil }
func noClose(any)                     {}

// packetWorkload runs a fixed subset of the campaign jobs on one worker.
func packetWorkload(name string, sizes func(*profile) campaignSizes, jobs ...string) workload {
	return workload{
		name: name, workers: 1, setup: noSetup, close: noClose,
		iterate: func(e *env, p *profile, _ any, parent, iter int) *iterOut {
			it, _ := sweep(e, sizes(p), jobs, parent, iter)
			it.seal()
			return it
		},
	}
}

// fleetState is fleet_scale's standing fleet and the cumulative campaign
// result after the previous iteration (Fleet.Run reports running totals).
type fleetState struct {
	f    *fleet.Fleet
	prev map[string]fleet.RegionResult
}

var workloads = []workload{
	{
		name: "paper_report", workers: 2, setup: noSetup, close: noClose,
		iterate: func(e *env, p *profile, _ any, parent, iter int) *iterOut {
			it, c := sweep(e, p.report, stageNames, parent, iter)

			fl := &stageOut{name: "fleet-scenario", key: "fleet_scenario", attempted: 1}
			guarded(e, fl, "core.RunFleetScenario", parent, iter, func() {
				res := core.RunFleetScenario(fleet.Config{Terminals: p.reportFleetTerms, Horizon: p.reportFleetSpan}, e.options())
				checkFleet(fl, res)
			})
			tr := &stageOut{name: "fleet-traffic", key: "fleet_traffic", attempted: 1}
			guarded(e, tr, "core.RunFleetTraffic", parent, iter, func() {
				res := core.RunFleetTraffic(fleet.TrafficConfig{
					Fleet: fleet.Config{Terminals: p.reportTrafficTerms, Horizon: p.reportTrafficSpan, Epoch: fleetEpoch},
				}, e.options())
				checkTraffic(tr, res)
			})
			fig := &stageOut{name: "figures", key: "figures", attempted: 1}
			guarded(e, fig, "core.Figure*/Render*", parent, iter, func() {
				text := renderFigures(c, p.report)
				fig.printf("%s", text)
				if len(text) > 0 {
					fig.ok = 1
				}
			})
			it.stages = append(it.stages, fl, tr, fig)
			it.seal()
			return it
		},
	},
	packetWorkload("quic_bulk", func(p *profile) campaignSizes { return p.quic },
		"h3-down", "h3-up", "wired-baseline"),
	packetWorkload("tcp_bulk", func(p *profile) campaignSizes { return p.tcp },
		"speedtest-starlink", "speedtest-satcom", "wehe"),
	packetWorkload("small_packets", func(p *profile) campaignSizes { return p.small },
		"latency", "messages-down", "messages-up", "web-starlink", "web-satcom", "web-wired",
		"middlebox-starlink", "middlebox-satcom"),
	{
		name: "fleet_scale", workers: 2,
		setup: func(e *env, p *profile, parent int) any {
			id := e.rec.begin("fleet.New", parent, -1)
			defer e.rec.end(id)
			return &fleetState{f: fleet.New(fleet.Config{
				Seed: worldSeed, Terminals: p.fleetTerms, Workers: e.workers,
				Horizon: time.Duration(p.fleetEpochs) * fleetEpoch,
			})}
		},
		iterate: func(e *env, p *profile, state any, parent, iter int) *iterOut {
			st := state.(*fleetState)
			ep := &stageOut{name: "fleet-epochs", key: "fleet_epochs", attempted: p.fleetTerms * p.fleetEpochs}
			guarded(e, ep, "fleet.Fleet.Run", parent, iter, func() {
				// Run reports totals since fleet.New; this iteration's
				// share is the difference to the previous call.
				now := map[string]fleet.RegionResult{}
				for _, rr := range st.f.Run().Regions {
					now[rr.Region] = rr
					was := st.prev[rr.Region]
					samples, outage := rr.Samples-was.Samples, rr.OutageTermEpochs-was.OutageTermEpochs
					ep.printf("%s terms=%d samples=%d outage=%d handovers=%d\n",
						rr.Region, rr.Terminals, samples, outage, rr.Handovers-was.Handovers)
					ep.ok += int(samples + outage)
				}
				st.prev = now
				if ep.ok != ep.attempted {
					ep.fail("%d terminal-epochs accounted, want %d", ep.ok, ep.attempted)
				}
			})
			tr := &stageOut{name: "fleet-traffic", key: "fleet_traffic"}
			guarded(e, tr, "fleet.Traffic.Run", parent, iter, func() {
				sc := fleet.NewTraffic(fleet.TrafficConfig{
					Fleet: fleet.Config{Seed: worldSeed, Terminals: p.trafficTerms, Horizon: p.trafficSpan,
						Epoch: fleetEpoch, Workers: e.workers},
					ScenarioWorkers: e.workers,
					Collector:       e.collector,
				})
				res := sc.Run()
				tr.attempted = int(res.ProbesSent)
				checkTraffic(tr, res)
				tr.skipped = sc.EventsSkipped()
			})
			it := &iterOut{stages: []*stageOut{ep, tr}}
			it.seal()
			return it
		},
		close: func(state any) { state.(*fleetState).f.Close() },
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// checkFleet accounts a fleet epoch campaign: every terminal-epoch must be
// either served or in outage, or all of o's operations fail.
func checkFleet(o *stageOut, res *fleet.Result) {
	var accounted int64
	for _, rr := range res.Regions {
		o.printf("%+v\n", rr)
		accounted += rr.Samples + rr.OutageTermEpochs
	}
	o.printf("terminals=%d epochs=%d cells=%d sats=%d\n", res.Terminals, res.Epochs, res.Cells, res.Satellites)
	if want := int64(res.Terminals) * int64(res.Epochs); accounted != want || want == 0 {
		o.fail("%d terminal-epochs accounted, want %d", accounted, want)
		return
	}
	o.ok = o.attempted
}

// checkTraffic accounts a packet-level fleet scenario. The emulated links
// are lossless, so the only probes without a reply are those in flight at
// the horizon: beyond a generous 1 % all of o's operations fail.
func checkTraffic(o *stageOut, res *fleet.TrafficResult) {
	for _, rr := range res.Regions {
		o.printf("%+v\n", rr)
	}
	o.printf("terminals=%d partitions=%d windows=%d events=%d sent=%d recv=%d skipped=%d\n",
		res.Terminals, res.Partitions, res.Windows, res.Events, res.ProbesSent, res.ProbesRecv, res.ProbesSkipped)
	for _, rr := range res.Fleet.Regions {
		o.printf("%+v\n", rr)
	}
	o.events, o.windows, o.probes = res.Events, res.Windows, int(res.ProbesSent)
	switch {
	case res.ProbesSent == 0:
		o.fail("no probes sent")
	case (res.ProbesSent-res.ProbesRecv)*100 > res.ProbesSent:
		o.fail("%d of %d probes unanswered", res.ProbesSent-res.ProbesRecv, res.ProbesSent)
	default:
		o.ok = o.attempted
	}
}
