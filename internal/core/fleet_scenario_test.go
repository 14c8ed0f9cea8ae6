package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"starlinkperf/internal/fleet"
	"starlinkperf/internal/obs"
)

// TestFleetScenarioWorkerInvariance holds RunFleetScenario to the same
// worker-count contract as the campaign sweep: results AND observability
// exports are byte-identical for any parallelism.
func TestFleetScenarioWorkerInvariance(t *testing.T) {
	runAt := func(workers int) (*fleet.Result, []byte, []byte) {
		col := obs.NewCollector()
		cfg := fleet.Config{Terminals: 1500, Horizon: 10 * time.Minute}
		res := RunFleetScenario(cfg, Options{Workers: workers, Seed: 11, Obs: col})
		return res, col.ExportMetricsJSON(), col.ExportTraceBinary()
	}
	r1, m1, t1 := runAt(1)
	r4, m4, t4 := runAt(4)
	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("results differ between 1 and 4 workers:\n1: %+v\n4: %+v", r1, r4)
	}
	if !bytes.Equal(m1, m4) {
		t.Error("metrics exports differ between 1 and 4 workers")
	}
	if !bytes.Equal(t1, t4) {
		t.Error("trace exports differ between 1 and 4 workers")
	}
	if r1.Terminals != 1500 || r1.Epochs != 40 {
		t.Errorf("unexpected campaign shape: %+v", r1)
	}
}

// TestFleetTrafficScenarioWorkerInvariance holds RunFleetTraffic — the
// sharded packet scenario — to the same contract: results and
// observability exports are byte-identical for any ScenarioWorkers value.
func TestFleetTrafficScenarioWorkerInvariance(t *testing.T) {
	runAt := func(workers int) (*fleet.TrafficResult, []byte, []byte) {
		col := obs.NewCollector()
		cfg := fleet.TrafficConfig{
			Fleet:      fleet.Config{Terminals: 400, Horizon: 4 * time.Second, Epoch: 2 * time.Second},
			Partitions: 4,
		}
		res := RunFleetTraffic(cfg, Options{Workers: 1, ScenarioWorkers: workers, Seed: 11, Obs: col})
		return res, col.ExportMetricsJSON(), col.ExportTraceBinary()
	}
	r1, m1, t1 := runAt(1)
	r8, m8, t8 := runAt(8)
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("results differ between 1 and 8 scenario workers:\n1: %+v\n8: %+v", r1, r8)
	}
	if !bytes.Equal(m1, m8) {
		t.Error("metrics exports differ between 1 and 8 scenario workers")
	}
	if !bytes.Equal(t1, t8) {
		t.Error("trace exports differ between 1 and 8 scenario workers")
	}
	if r1.Terminals != 400 || r1.Partitions != 4 || r1.ProbesRecv == 0 {
		t.Errorf("unexpected scenario shape: %+v", r1)
	}
}

// TestFleetScenarioSeedOverride: opts.Seed wins over the config seed,
// matching the sweep runners.
func TestFleetScenarioSeedOverride(t *testing.T) {
	cfg := fleet.Config{Seed: 3, Terminals: 400, Horizon: 5 * time.Minute}
	a := RunFleetScenario(cfg, Options{Seed: 9, Workers: 1})
	b := RunFleetScenario(fleet.Config{Seed: 9, Terminals: 400, Horizon: 5 * time.Minute}, Options{Workers: 1})
	if !reflect.DeepEqual(a, b) {
		t.Error("opts.Seed did not override cfg.Seed")
	}
	c := RunFleetScenario(cfg, Options{Workers: 1})
	if reflect.DeepEqual(a, c) {
		t.Error("seed override had no effect")
	}
}
