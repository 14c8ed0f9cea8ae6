package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/netem/netemtest"
	"starlinkperf/internal/sim"
)

// A sweep worker's pools outlive its testbeds: on one worker, an H3
// transfer run a second time on a fresh testbed of the same seed, and then
// a speedtest run twice the same way, draw every packet, QUIC buffer, sent
// record, STREAM frame, TCP segment and in-flight ring of the second run
// from what the first one listed — each testbed took its predecessor's
// lists over before its first packet. Each network still accounts for its
// own traffic: Gets = Puts.
func TestAllocGateSweepWorkerInheritsPools(t *testing.T) {
	cfg := quickConfig()
	runs := []func(tb *Testbed){
		func(tb *Testbed) { tb.RunH3Campaign(1, 1<<20, true, time.Second) },
		func(tb *Testbed) { tb.RunSpeedtestCampaign(TechStarlink, 1, time.Second) },
	}
	got := make([]map[string]sim.PoolStats, 2*len(runs))
	forEachShard(Options{Workers: 1}, len(got), func(i int, slot *poolSlot) {
		tb := shardTestbed(cfg, 11, Options{}, "handover", i, slot)
		runs[i/2](tb)
		if err := netemtest.CheckPools(tb.Net); err != nil {
			t.Errorf("network %d: %v", i, err)
		}
		got[i] = poolsOf(tb.Net)
	})
	for _, c := range []struct {
		run   int
		pools []string
	}{
		{1, []string{"packet", "quic wire", "quic sent", "quic frame"}},
		{3, []string{"packet", "tcp segment", "tcp ring"}},
	} {
		for _, pool := range c.pools {
			if st := got[c.run][pool]; st.Gets == 0 || st.Hits != st.Gets {
				t.Errorf("network %d: %s pool %+v: the second identical run allocated %d", c.run, pool, st, st.Gets-st.Hits)
			}
		}
	}
}

// reportJobs is a few of the report's jobs at tiny sizes, each returning
// a comparable fingerprint of its result and the events its scheduler ran.
func reportJobs() []SweepJob {
	cfg := quickConfig()
	type out struct {
		Value     any
		Processed uint64
	}
	job := func(name string, run func(tb *Testbed) any) SweepJob {
		return SweepJob{Name: name, Cfg: cfg, Run: func(tb *Testbed) any {
			v := run(tb)
			return out{v, tb.Sched.Processed}
		}}
	}
	return []SweepJob{
		job("speedtest-satcom", func(tb *Testbed) any { return tb.RunSpeedtestCampaign(TechSatCom, 1, time.Second) }),
		job("h3-down", func(tb *Testbed) any {
			var fps []h3Fingerprint
			for _, r := range tb.RunH3Campaign(1, 512<<10, true, time.Second).Records {
				fp := h3Fingerprint{Record: r, ClientStats: r.Result.Client.Stats, ServerStats: r.Result.Server.Stats}
				fp.Record.Result.Client, fp.Record.Result.Server = nil, nil
				fps = append(fps, fp)
			}
			return fps
		}),
		job("messages-up", func(tb *Testbed) any { return tb.RunMessagesCampaign(1, 5*time.Second, false) }),
		job("speedtest-starlink", func(tb *Testbed) any { return tb.RunSpeedtestCampaign(TechStarlink, 1, time.Second) }),
		job("middlebox-starlink", func(tb *Testbed) any {
			var b strings.Builder
			RenderMiddleboxAudit(&b, "starlink", tb.RunMiddleboxAudit(TechStarlink))
			return b.String()
		}),
		job("web-satcom", func(tb *Testbed) any { return tb.RunWebCampaign(TechSatCom, 2, time.Second) }),
	}
}

// A job's result does not depend on what ran before it on its worker. On
// one worker every job's testbed inherits the lists of the one before —
// segments poisoned, buffers holding their predecessor's bytes, records
// and frames as the last connection left them — and each result, event
// count included, must equal the job's run on a testbed that inherited
// nothing.
func TestSweepJobIndependentOfPredecessor(t *testing.T) {
	opts := Options{Workers: 1}
	jobs := reportJobs()
	chained := RunSweep(jobs, opts)
	for i, job := range jobs {
		name := "sweep/" + job.Name
		seed := sim.DeriveSeed(opts.baseSeed(job.Cfg), name, i)
		fresh := job.Run(shardTestbed(job.Cfg, seed, opts, name, i, &poolSlot{}))
		if !reflect.DeepEqual(chained[i].Value, fresh) {
			t.Errorf("%s after %d other jobs on its worker:\n %+v\nalone:\n %+v", job.Name, i, chained[i].Value, fresh)
		}
	}
}
