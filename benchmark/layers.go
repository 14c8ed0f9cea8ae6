package main

import (
	"fmt"
	"strings"
)

// stageKeys are the ledger lines core.stage.<key>_s, final names.
var stageKeys = []string{
	"latency", "h3_down", "h3_up", "h3_wired", "msg_down", "msg_up",
	"speedtest_starlink", "speedtest_satcom", "wehe",
	"web_starlink", "web_satcom", "web_wired", "middlebox", "figures",
}

var paperKeys = []string{
	"paper.rtt_idle_p50_ms", "paper.h3_loss_down_pct", "paper.h3_loss_up_pct",
	"paper.h3_down_p50_mbps", "paper.speedtest_down_p50_mbps", "paper.speedtest_up_p50_mbps",
	"paper.web_onload_starlink_p50_s",
}

// sum adds f over the stages of one iteration that match.
func sum(it *iterOut, match func(*stageOut) bool, f func(*stageOut) float64) float64 {
	var total float64
	for _, o := range it.stages {
		if match(o) {
			total += f(o)
		}
	}
	return total
}

func ofKind(k stageKind) func(*stageOut) bool {
	return func(o *stageOut) bool { return o.kind == k }
}

func ofKey(keys ...string) func(*stageOut) bool {
	return func(o *stageOut) bool {
		for _, k := range keys {
			if o.key == k {
				return true
			}
		}
		return false
	}
}

func anyStage(*stageOut) bool   { return true }
func wallS(o *stageOut) float64 { return o.wall.Seconds() }
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perIter is the median over the traced iterations of num/den, both
// summed over the matching stages: host time per unit of a layer's work.
func perIter(its []*iterOut, match func(*stageOut) bool, num, den func(*stageOut) float64) float64 {
	var xs []float64
	for _, it := range its {
		if d := sum(it, match, den); d > 0 {
			xs = append(xs, sum(it, match, num)/d)
		}
	}
	return median(xs)
}

// medianSum is the median over the traced iterations of f summed over
// the matching stages.
func medianSum(its []*iterOut, match func(*stageOut) bool, f func(*stageOut) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = sum(it, match, f)
	}
	return median(xs)
}

// ledger turns a traced run into the per-layer metrics, every name of
// BENCHMARK.json's per_layer list. A line that does not apply to the
// workload (fleet.* under quic_bulk, say) reads 0.
func ledger(d *tracedData, res *runResult) (map[string]float64, error) {
	if len(d.iters) == 0 {
		return nil, fmt.Errorf("traced run of %s has no iterations", d.w.name)
	}
	m := map[string]float64{}
	its, last := d.iters, d.iters[len(d.iters)-1]
	snap := d.snapshot
	alone := d.w.workers == 1

	// Span self times, grouped by span name, per traced iteration.
	spans := d.rec.spans
	self := selfTimes(spans)
	iterOf := map[int]int{} // span id → index of its traced iteration
	for k, id := range d.iterIDs {
		iterOf[id] = k
	}
	byName := map[string][]float64{} // span name → self seconds per iteration
	coverage := 1.0
	for i, s := range spans {
		if _, ok := iterOf[i]; ok {
			if dur := float64(s.End - s.Start); dur > 0 {
				coverage = min(coverage, 1-float64(self[i])/dur)
			}
			continue
		}
		// Walk up to the owning iteration, if any.
		p := s.Parent
		for p >= 0 {
			if _, ok := iterOf[p]; ok {
				break
			}
			p = spans[p].Parent
		}
		if p < 0 {
			continue
		}
		if byName[s.Name] == nil {
			byName[s.Name] = make([]float64, len(d.iterIDs))
		}
		byName[s.Name][iterOf[p]] += float64(self[i]) / 1e9
	}
	res.StageCoverage = coverage
	res.StageSelfS = map[string]float64{}
	keyOf := map[string]string{"core.Figure*/Render*": "figures"}
	for _, o := range last.stages {
		keyOf["stage:"+o.name] = o.key
	}
	stageSelf := map[string][]float64{} // ledger key → self seconds per iteration
	for name, xs := range byName {
		res.StageSelfS[strings.TrimPrefix(name, "stage:")] = median(xs)
		if key, ok := keyOf[name]; ok {
			if stageSelf[key] == nil {
				stageSelf[key] = make([]float64, len(xs))
			}
			for i, x := range xs {
				stageSelf[key][i] += x
			}
		}
	}

	// core
	for _, key := range stageKeys {
		m["core.stage."+key+"_s"] = median(stageSelf[key])
	}
	var makespan []float64
	for _, s := range spans {
		if _, ok := iterOf[s.Parent]; ok && s.Name == "core.RunSweep" {
			makespan = append(makespan, float64(s.End-s.Start)/1e9)
		}
	}
	isJob := func(o *stageOut) bool { return o.kind != kindOther }
	m["core.sweep.makespan_s"] = median(makespan)
	m["core.sweep.busy_s"] = medianSum(its, isJob, wallS)
	m["core.sweep.imbalance"] = ratio(m["core.sweep.makespan_s"], m["core.sweep.busy_s"]/float64(d.w.workers))

	// sim
	events := func(o *stageOut) float64 { return float64(o.events) }
	executed := sum(last, anyStage, events)
	skipped := sum(last, anyStage, func(o *stageOut) float64 { return float64(o.skipped) })
	windows := sum(last, anyStage, func(o *stageOut) float64 { return float64(o.windows) })
	hasEvents := func(o *stageOut) bool { return o.events > 0 }
	m["sim.events_executed"] = executed
	m["sim.events_skipped"] = skipped
	m["sim.ns_per_event"] = 1e9 * perIter(its, hasEvents, wallS, events)
	m["sim.ff_absorbed_share"] = ratio(skipped, executed+skipped)
	m["sim.pdes.windows"] = windows
	m["sim.pdes.events_per_window"] = ratio(sum(last, func(o *stageOut) bool { return o.windows > 0 }, events), windows)

	// netem: counts from the observability registry (it also sees the
	// fleet traffic scenario's partitions), host time and pool from the
	// campaign testbeds.
	linkSent := func(o *stageOut) float64 { return float64(o.link.Sent) }
	m["netem.packets_sent"] = snap["net.link.sent"]
	m["netem.packets_delivered"] = snap["net.link.delivered"]
	m["netem.drops_queue"] = snap["net.link.drops.queue"]
	m["netem.drops_loss"] = snap["net.link.drops.medium"]
	m["netem.drops_down"] = snap["net.link.drops.outage"]
	for _, o := range last.stages {
		m["netem.queue_peak_bytes"] = max(m["netem.queue_peak_bytes"], float64(o.link.QueuedPeak))
	}
	m["netem.pool_hit_rate"] = ratio(sum(last, anyStage, func(o *stageOut) float64 { return float64(o.pool.Hits) }),
		sum(last, anyStage, func(o *stageOut) float64 { return float64(o.pool.Gets) }))
	m["netem.ns_per_packet"] = 1e9 * perIter(its, func(o *stageOut) bool { return o.link.Sent > 0 }, wallS, linkSent)

	// leo
	m["leo.handovers"] = snap["leo.handovers"]
	m["leo.outage_windows"] = snap["leo.outages"]

	// quic and tcpsim: a stage's transport originates all of its packets
	// (bar a handful of ICMP probes), so packets handed out by the
	// network's pool in QUIC-only stages are QUIC packets, in TCP-only
	// stages TCP segments.
	originated := func(o *stageOut) float64 { return float64(o.pool.Gets) }
	mallocs := func(o *stageOut) float64 { return float64(o.mallocs) }
	m["quic.packets_sent"] = sum(last, ofKind(kindQUIC), originated)
	m["quic.packets_lost"] = snap["quic.packets_lost"]
	m["quic.pto_count"] = snap["quic.pto"]
	m["quic.frames_retx"] = snap["quic.frames_retx"]
	m["quic.ns_per_packet"] = 1e9 * perIter(its, ofKind(kindQUIC), wallS, originated)
	m["quic.msg.ns_per_message"] = 1e9 * perIter(its, ofKey("msg_down", "msg_up"), wallS,
		func(o *stageOut) float64 { return float64(o.messages) })
	m["tcpsim.segments_sent"] = sum(last, ofKind(kindTCP), originated)
	m["tcpsim.retransmits"] = snap["tcp.fast_retx"] + snap["tcp.rto"]
	m["tcpsim.rto_count"] = snap["tcp.rto"]
	m["tcpsim.ns_per_segment"] = 1e9 * perIter(its, ofKind(kindTCP), wallS, originated)
	m["tcpsim.conns_opened"] = sum(last, anyStage, func(o *stageOut) float64 { return float64(o.conns) })
	// Allocation deltas are process-wide: attributable to a stage only
	// when the workload runs its stages one at a time.
	m["quic.allocs_per_packet"], m["quic.alloc_bytes_per_payload_byte"], m["tcpsim.allocs_per_segment"] = 0, 0, 0
	if alone {
		m["quic.allocs_per_packet"] = perIter(its, ofKind(kindQUIC), mallocs, originated)
		m["quic.alloc_bytes_per_payload_byte"] = perIter(its, ofKey("h3_down", "h3_up", "h3_wired"),
			func(o *stageOut) float64 { return float64(o.allocBytes) },
			func(o *stageOut) float64 { return float64(o.payloadBytes) })
		m["tcpsim.allocs_per_segment"] = perIter(its, ofKind(kindTCP), mallocs, originated)
	}

	// pep, measure, web, wehe
	m["pep.splices"] = snap["pep.splits"]
	m["pep.relayed_mb"] = snap["pep.relayed_bytes"] / 1e6
	m["measure.probes_sent"] = snap["probe.echo_sent"]
	m["measure.probes_lost"] = snap["probe.echo_lost"]
	m["measure.ns_per_probe"] = 1e9 * perIter(its, ofKey("latency"), wallS, func(o *stageOut) float64 { return float64(o.probes) })
	visits := func(o *stageOut) float64 { return float64(o.visits) }
	m["web.visits"] = sum(last, anyStage, visits)
	m["web.failed_visits"] = sum(last, anyStage, func(o *stageOut) float64 { return float64(o.failedVisits) })
	m["web.ms_per_visit"] = 1e3 * perIter(its, func(o *stageOut) bool { return o.visits > 0 }, wallS, visits)
	replays := func(o *stageOut) float64 { return float64(o.replays) }
	m["wehe.replays"] = sum(last, anyStage, replays)
	m["wehe.s_per_replay"] = perIter(its, ofKey("wehe"), wallS, replays)

	// obs
	m["obs.overhead_pct"] = 100 * (ratio(median(d.obsOn), median(d.plain)) - 1)
	m["obs.trace_records"] = float64(d.records)
	m["obs.trace_dropped"] = float64(d.ringsFull)
	m["obs.export_ms"] = d.exportMs

	// fleet
	epochs, traffic := ofKey("fleet_epochs"), ofKey("fleet_traffic")
	m["fleet.build_s"], m["fleet.bytes_per_terminal"] = 0, d.fleet.bytesPerTerminal
	for _, s := range spans {
		if s.Name == "fleet.New" && s.Parent == d.setupID {
			m["fleet.build_s"] = float64(s.End-s.Start) / 1e9
		}
	}
	m["fleet.epoch_ms"] = median(d.fleet.epochMs)
	m["fleet.ns_per_terminal_epoch"] = ratio(1e6*m["fleet.epoch_ms"], float64(d.p.fleetTerms))
	m["fleet.allocs_per_epoch"] = d.fleet.allocsPerEpoch
	m["fleet.traffic.wall_s"] = medianSum(its, traffic, wallS)
	probes := func(o *stageOut) float64 { return float64(o.probes) }
	m["fleet.traffic.probes_per_s"] = perIter(its, traffic, probes, wallS)
	m["fleet.traffic.events_per_probe"] = ratio(sum(last, traffic, events), sum(last, traffic, probes))
	m["fleet.parallel_efficiency"], m["fleet.traffic.parallel_efficiency"] = 0, 0
	if d.single != nil {
		// wall on one worker / (workers × wall on that many workers)
		eff := func(match func(*stageOut) bool) float64 {
			return ratio(sum(d.single, match, wallS), float64(d.w.workers)*medianSum(its, match, wallS))
		}
		m["fleet.parallel_efficiency"] = eff(epochs)
		m["fleet.traffic.parallel_efficiency"] = eff(traffic)
	}

	// Go runtime, per traced iteration
	n := float64(len(its))
	m["rt.gc_cycles"] = float64(d.gcCycles) / n
	m["rt.gc_pause_ms"] = d.gcPauseMs / n
	m["rt.peak_rss_mb"] = peakRSSMB()

	for _, k := range cpuShareKeys {
		m["cpu_share."+k] = d.shares[k]
	}
	m["bench.trace_overhead_pct"] = 100 * (ratio(median(d.traced), median(d.plain)) - 1)
	m["bench.generator_share"] = d.generator

	for _, k := range paperKeys {
		m[k] = res.Paper[k]
	}
	for k, v := range d.probes {
		m[k] = v
	}
	return m, nil
}
