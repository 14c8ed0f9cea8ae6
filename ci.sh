#!/bin/sh
# ci.sh — the full gate: formatting, vet, guards against deleted
# mechanisms and hand-declared shared flags coming back through a merge,
# build, a run of the four examples, the test suite under the race
# detector (which runs every sim.Workers fan-out), the allocation gates in
# a plain pass, seven fuzz smokes, ten race-detector rounds of the fleet's
# pooled scan and of the fork/join pool, and two short runs of the repo
# benchmark. Equivalence is proven by tests, not here: every fast path is
# compared with an oracle in its package's _test.go files, and the
# report-level byte-diffs (worker counts, transport profile) are the two
# runs of the `starlink-bench quick` row of cmd/internal/cli's golden
# table, which pins what each command prints. See DESIGN.md §6.
set -eu

cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== no deleted mechanism in non-test code (DESIGN.md: Independent traffic shards, §7 Geometry fast path)"
# The cross-partition engine, the geometry memo rings that became one slot
# each and caller-owned snapshots, and the fleet's count-then-fill candidate
# sweep over every cell (candCount; the sweep is one pass over populated
# cells now, and the only unpruned scan is the all-satellites oracle in
# internal/fleet/equivalence_test.go), the fleet's own epoch pool and
# the per-type pool counters that sim.Workers and sim.PoolStats replaced,
# the fleet's two-phase epoch (assign blocks, an observe pass and the
# prevSat copy between them) and its longitude-window admission sweep
# with its scatter into the CSR, which one cell walk and a direct
# dot-product admission per populated cell replaced, and the serial
# admission pass with its shared candidate CSR and per-satellite gateway
# table (buildCandidates, candStart/candUB, satGwAt), which admission per
# cell inside the walk and a per-worker gateway cache replaced,
# the hand-written FIFOs and interval sets that sim.Ring and sim.Ranges
# replaced, the scheduler's lazy compaction that Scheduler.Rearm
# made unnecessary, and the second copies of netem's route and handler
# tables and of tcpsim's message index, with the dirty flags and lazy
# rebuilds that kept them in step (each table is one sorted slice now),
# the per-packet hop log `Packet.Hops` that only tests read (a link's
# DeliverHook sees every hop; MiddleboxAudit.Hops is traceroute's own
# []TraceboxHop and does not match), QUIC's per-endpoint wire freelist and
# per-connection chunk, sent-record and frame freelists that the network's
# one QUIC pool replaced, trace's AnalyzeSenderView, which nothing called, the
# hand-threaded observability switches (obs.Options, the probers' and
# proxies' Observe methods, pep.New without its node) that
# netem.Network.Sink replaced, since a layer is observed iff its network
# is (DESIGN.md §7 Observability), cc's NewReno, which nothing
# selected, the per-packet link enqueue/dequeue trace records, which
# filled the trace rings and gave observed links a second datapath, and
# the transport mechanisms no run reached or only the retired
# -transport toggle list did (CUBIC idle cwnd decay, QUIC migration, the
# pacer burst knobs), errant's unused import/draw half and the
# -scenario.workers flag, which duplicated -workers, starlink-bench's
# own copy of the report's sizes and scenario (the job list, sizes and
# scenario live in internal/core/report.go), the report's fleet traffic
# table and its sizes and wall (RenderTraffic, TrafficWall,
# TrafficTerminals, TrafficSpan; its per-region RTT quantiles equal the
# epoch campaign's, fleet's TestTrafficRTTPlausibility), the testbed
# terminal's full-scan fallback (computeAssignmentFull; the clamped window
# is the one scan), its DelayFunc and Handovers, which only tests called,
# the fleet's accounting-free walk (reassignAt; tests drive RunEpoch),
# the options one production value served or that always equalled what
# is already configured (EnableZeroRTT: a client resumes iff it has a
# session cache; RTTMinWindow and core's modernMinRTTWindow: the window
# comes from the controller, cc's bbrMinRTTWindow; a gateway's
# MinElevationDeg: leo.GatewayMaskDeg; Config.WebSites: the paper's
# top-120 corpus; the PEP's MaxBacklog, unexported), and API only tests
# called (geo's CentralAngleRad, netem's NodeByName, quic's LargestSentPN
# and ParseFrames; CoverageCentralAngleRad stays and does not match), the
# packet-sharing protocol nothing but tests used (Packet.Detach/Clone/Gen/
# Pooled, Network.ReleasePacket, PayloadSharer and both SharePayloads,
# Freelist.Share and the PoolStats Shared counter: the datapath owns every
# pooled object, so every pool reads Gets = Puts), the scheduler's
# test-only Step/Stop/Pending, Time.Before/After, obs's Gauge.Add/Value,
# cc's BBR.State and core's RunMessagesCampaignCfg (the pacing ablation
# sets Testbed.QUICConf), netem's two named transport-pool slots and
# their accessors (TCPSegmentPool/SetTCPSegmentPool/QUICWirePool/
# SetQUICWirePool: every layer's pool is one entry of the network's list,
# netem.PoolOf) and the per-pool counter accessors that its one walk
# netem.Network.Pools replaced (Network.ICMPPoolStats, tcpsim's
# SegmentPoolStats/RingPoolStats, quic's WirePoolStats/SentPoolStats/
# FramePoolStats), the congestion controllers' Name and InSlowStart, which
# no caller read (CUBIC keeps its own slow-start check, unexported), nat's
# MappingTimeout field (a constant) and sim's re-exported durations
# (Nanosecond … Hour), and the workload arguments every caller passed one
# value for (the message request's rate and size fields, MessageParams and
# checkMessages' rate and size cases, now measure's constants; core's
# latencyProbes, now measure.MonitorProbes; the traceroutes' maxTTL, now
# measure's maxTTL), and QUIC's reassembly chunks (a segment's chunk
# *wireBuf and its seg.chunk reads: data that waits out of order is kept
# by reference). The patterns are declarations, so that calls of
# TimerHandle.Stop/Pending and time.Time.Before do not match.
if grep -rnE 'PartitionedDriver|CrossEdge|AddCrossLink|snapshotRing|peekSnapshot|delayRing|islMemo|candCount|referenceReassignAt|epochPool|runPhase|phaseAssign|WirePoolStats struct|pktRing|txRing|frameQueue|rangeSet|byteRanges|cryptoRecv|offRange|compactMin|nstopped|\) compact\(|rebuildFIB|rebuildHandlers|fibDirty|hDirty|fibGroups|msgsInOrder|insertMsgKey|Hops \[\]Addr|wireFree|chunkFree|sentFree|frameFree|AnalyzeSenderView|obs\.Options|\(p \*Prober\) Observe|\(p \*Proxy\) Observe|pep\.New\(|NewNewReno|KindEnqueue|KindDequeue|IdleDecay|decayAfterIdle|AllowMigration|PathMigrations|PacingBurst|UnmarshalProfiles|LinkConfigs|"scenario\.workers"|sizesFor|paperScenario|prevSat|observeEpoch|observeCellInto|observeRange|assignRange|assignBlock|admitRow|candFill|scanSats|buildCandidates|candStart|candUB|satGwAt|RenderTraffic|TrafficWall|TrafficTerminals|TrafficSpan|computeAssignmentFull|reassignAt|\) DelayFunc\(|\) Handovers\(|EnableZeroRTT|RTTMinWindow|modernMinRTTWindow|MinElevationDeg|WebSites|MaxBacklog|(^|[^A-Za-z])CentralAngleRad|NodeByName|LargestSentPN|ParseFrames|func \(p \*Packet\) (Detach|Clone|Gen|Pooled)\(|\) ReleasePacket\(|PayloadSharer|SharePayload|\.Share\(\)|Shared +uint64|func \(s \*Scheduler\) (Step|Stop|Pending)\(|func \(t Time\) (Before|After)\(|func \(g \*Gauge\) (Add|Value)\(|func \(b \*BBR\) State\(|RunMessagesCampaignCfg|func \(nw \*Network\) (TCPSegmentPool|SetTCPSegmentPool|QUICWirePool|SetQUICWirePool|ICMPPoolStats)\(|(tcpSegPool|quicWirePool) +TransportPool|func (SegmentPoolStats|RingPoolStats|WirePoolStats|SentPoolStats|FramePoolStats)\(|func \([a-z] \*(BBR|Cubic|Fixed)\) (Name|InSlowStart)\(|MappingTimeout +time\.Duration|^	(Nanosecond|Microsecond|Millisecond|Second|Minute|Hour) += time\.|MessageParams|func checkMessages\(|message (rate|minSize|maxSize) %d|latencyProbes|maxTTL int|chunk \*wireBuf|seg\.chunk' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark .; then
    echo "a deleted mechanism is named above" >&2
    exit 1
fi
# A packet's recycle counter, which nothing read (the scheduler's timers
# keep their own gen).
if grep -rnE '^	gen +uint32' --include='*.go' --exclude='*_test.go' internal/netem; then
    echo "a deleted mechanism is named above" >&2
    exit 1
fi
# quic.Config's flow-control and ACK-delay fields and quic.DefaultConfig
# (quiche's windows and ACK delay are quic's constants, and the zero Config
# is the paper's quiche; tcpsim and core keep their own DefaultConfig), and
# core's H3Port (measure.H3Port, where the H3 server listens).
if grep -rnE '^	(InitialMaxData|InitialMaxStreamData|MaxReceiveWindow|MaxAckDelay) |func DefaultConfig\(' --include='*.go' --exclude='*_test.go' internal/quic ||
    grep -rnE 'H3Port +=' --include='*.go' --exclude='*_test.go' internal/core; then
    echo "a deleted mechanism is named above" >&2
    exit 1
fi

echo "== one freelist, one fork/join pool, one ring (DESIGN.md §7: Recycling, Fork/join, Queues and range sets)"
# Goroutines are started, and joined, by sim.Workers alone; a hand-written
# freelist pop (`xs[k-1] = nil`, whatever the index is called) is
# sim.Freelist's alone, a power-of-two ring index sim.Ring's alone.
if grep -rnE '(^|[^A-Za-z_])go (func|[A-Za-z_][A-Za-z_0-9.]*\()|sync\.WaitGroup' --include='*.go' --exclude='*_test.go' internal |
    grep -v '^internal/sim/workers.go:'; then
    echo "a goroutine fan-out is written by hand above; use sim.Workers (internal/sim/workers.go)" >&2
    exit 1
fi
if grep -rnE '\[[A-Za-z_]+-1\] = nil' --include='*.go' --exclude='*_test.go' internal | grep -v '^internal/sim/'; then
    echo "a freelist is written by hand above; use sim.Freelist (internal/sim/freelist.go)" >&2
    exit 1
fi
if grep -rnE '[^&]& *\(len\(' --include='*.go' --exclude='*_test.go' internal | grep -v '^internal/sim/'; then
    echo "a ring is written by hand above; use sim.Ring (internal/sim/ring.go)" >&2
    exit 1
fi

echo "== one splitmix64 (internal/sim/rng.go: SplitMix64)"
# The splitmix64 step is written once; a second copy is recognised by its
# first multiplier.
if grep -rn '0xbf58476d1ce4e5b9' --include='*.go' --exclude='*_test.go' . | grep -v '^./internal/sim/'; then
    echo "splitmix64 is written by hand above; use sim.SplitMix64" >&2
    exit 1
fi

echo "== connection timers re-armed in place (DESIGN.md §7: Event loop)"
# A TCP or QUIC timer is moved with Scheduler.Rearm, which reuses its queued
# node; a fresh AfterFunc/AtFunc into a timer field leaves the old node
# behind dead.
if grep -rnE 'Timer = c\.sched\.(AfterFunc|AtFunc)\(' --include='*.go' --exclude='*_test.go' internal/tcpsim internal/quic; then
    echo "a connection timer is re-armed by a fresh schedule above; use sched.Rearm" >&2
    exit 1
fi

echo "== one flag binder, one campaign driver (DESIGN.md §4: One campaign shape, One command surface)"
# -seed, -workers, -transport and -tech are declared in cmd/internal/cli/cli.go
# and nowhere else; the run-one-then-gap loop is core's repeat and nowhere
# else (it used to be a closure called runOne, five times).
if grep -rnE '\((&[A-Za-z_.]+, *)?"(seed|workers|transport|tech)",' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . |
    grep -v '^./cmd/internal/cli/cli.go:'; then
    echo "a shared flag is declared by hand above; take it from the binder (cmd/internal/cli/cli.go)" >&2
    exit 1
fi
if grep -rn 'runOne' --include='*.go' --exclude='*_test.go' internal/core; then
    echo "a hand-written repetition loop is named above; use repeat (internal/core/campaigns.go)" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== examples run (non-zero exit or empty stdout fails)"
for ex in examples/*/; do
    out=$(go run "./$ex")
    if [ -z "$out" ]; then
        echo "$ex printed nothing" >&2
        exit 1
    fi
done

echo "== go test -race"
# The sharded campaign driver's tests (internal/core/parallel_test.go) and
# the golden table's sharded rows force 4 workers, so the concurrent path
# is exercised even on a single-CPU machine.
go test -race ./...

echo "== allocation gates (0 allocs per event / packet / segment / epoch, no race detector)"
# testing.AllocsPerRun under -race can count instrumentation allocations,
# so the zero-allocation gates get a plain pass: the scheduler's timer
# churn, the netem send->route->deliver, echo, transit and ICMP-error
# (error, body and quote from the pools) paths, the QUIC
# and TCP bulk-transfer cycles, the fleet's per-epoch reassignment up
# to the pooled 100k-terminal epoch, and a sweep worker's second identical
# job drawing every pooled object from what its first testbed handed over.
# Any regression that puts an allocation back on one of those paths fails
# here. TestAllocGateFleetBytesPerTerminal gates bytes, not allocations:
# the live heap of a standing 100k-terminal fleet, at most 64 B per
# terminal.
go test ./internal/sim ./internal/netem ./internal/quic ./internal/tcpsim ./internal/fleet ./internal/core \
    -run 'TestAllocGate' -count=1

echo "== range set fuzz smoke (10 s against the fresh-slice oracle)"
# The seed corpus already ran in the -race pass; this adds ten seconds of
# mutated insert/consume/trim/query programs, every step compared with the
# fresh-slice implementation kept in the test file. sim.Ranges is every
# SACK scoreboard, received-packet set and crypto reassembly.
go test ./internal/sim -run '^$' -fuzz 'FuzzRanges' -fuzztime 10s

echo "== ring fuzz smoke (10 s against the slice model)"
# Push/pushFront/pop/popBack/reset programs with in-place mutation through Front
# and Back, across wrap-around and growth; sim.Ring is every FIFO.
go test ./internal/sim -run '^$' -fuzz 'FuzzRing' -fuzztime 10s

echo "== route table fuzz smoke (5 s against the edit-log oracle)"
# Random route tables (re-added destinations, duplicate prefixes, /0, /32+
# and negative masks, a default or none) and a fuzzed destination: the
# sorted tables and the cache decide as the linear scan over the edits.
go test ./internal/netem -run '^$' -fuzz 'FuzzFlatFIB' -fuzztime 5s

echo "== link pipe fuzz smoke (5 s against per-packet timers)"
# A fuzzed scenario seed, on and off the whole-microsecond grid: rated links
# in one event and in two, mutators while packets serialize. The pipe
# delivers and drops as one timer per packet event would, and runs one
# event fewer for each packet it carried in one.
go test ./internal/netem -run '^$' -fuzz 'FuzzLinkPipe' -fuzztime 5s

echo "== QUIC wire refs fuzz smoke (5 s against Parse(Serialize(...)))"
# Fuzzed packets — STREAM and CRYPTO payloads, empty and FIN-only frames,
# ACKs of 1 to 32 ranges, some a receiver's next ACK — encoded with their
# payloads by reference and ACK tails reused, then parsed with the refs by
# one parser whose ACK memo carries over: the packet, its Size and the
# errors for refs that do not match the frames are the flat codec's.
go test ./internal/quic -run '^$' -fuzz 'FuzzWireRefs' -fuzztime 5s

echo "== fleet cell index fuzz smoke (10 s against the all-satellites scan)"
# Any position a terminal can stand at: every satellite it sees is in its
# cell's candidates, and the bound-pruned scan keeps what a scan of every
# satellite keeps, unseeded and seeded.
go test ./internal/fleet -run '^$' -fuzz 'FuzzCellIndex' -fuzztime 10s

echo "== fleet bound fuzz smoke (5 s: stored bound >= exact sinElevation)"
# The property every skipped candidate rests on.
go test ./internal/fleet -run '^$' -fuzz 'FuzzSinElevationBound' -fuzztime 5s

echo "== fleet pooled scan, ten rounds under the race detector"
# 1/2/4/8 workers walk disjoint runs of cells: they read only the
# snapshot's position and sky tables, and write their cells' terminals
# and their own scratch, candidate lists and gateway caches included;
# assignments, scan counts and whole campaigns (results, metrics and
# traces) must not depend on the count, with cells on different workers
# listing the same satellites. -short leaves the 100k-terminal campaign
# to the one -race pass above.
go test -race -short ./internal/fleet -run 'TestReassignWorkerInvariance|TestScanStats|TestEpochCampaignWorkerInvariance' -count=10

echo "== fork/join pool, ten rounds under the race detector"
# The pool itself; the whole epoch campaign on it is in the stanza above.
go test -race ./internal/sim -run 'TestWorkers' -count=10

echo "== benchmark smoke (one short run each of small_packets and fleet_scale)"
# The benchmark must build from a clean checkout, run, and report a correct
# run with no failed operation. small_packets covers the rated testbed
# links and the transports; fleet_scale the queue-less links, the epoch
# pool, the traffic shards and the fast-forward, and counts a run correct only when every
# terminal-epoch was accounted and every probe answered. Performance claims
# need ten alternating pairs against the parent (benchmark/README.md); this
# is not that.
for workload in small_packets fleet_scale; do
    last=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    echo "$last"
    case "$last" in
    *'"correct":true'*'"failed":0'*) ;;
    *)
        echo "benchmark smoke: $workload: last line does not report correct:true, failed:0" >&2
        exit 1
        ;;
    esac
done

echo "CI: all green"
