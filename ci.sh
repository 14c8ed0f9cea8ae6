#!/bin/sh
# ci.sh — the full gate: formatting, vet, guards against deleted
# mechanisms and hand-declared shared flags coming back through a merge,
# build, a run of the four examples, the test suite under the race
# detector (which runs every sim.Workers fan-out), the allocation gates in
# a plain pass, six fuzz smokes, ten race-detector rounds of the fleet's
# pooled scan and of the fork/join pool, and two short runs of the repo
# benchmark. Equivalence is proven by tests, not here: every fast path is
# compared with an oracle in its package's _test.go files, and the
# report-level byte-diffs (worker counts, transport profile) are
# cmd/starlink-bench's TestRunVariantMatrix; what each command prints is
# pinned by cmd/internal/cli's golden table. See DESIGN.md §6.
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
# the hand-written FIFOs and interval sets that sim.Ring and sim.Ranges
# replaced, the scheduler's lazy compaction that Scheduler.Rearm
# made unnecessary, and the second copies of netem's route and handler
# tables and of tcpsim's message index, with the dirty flags and lazy
# rebuilds that kept them in step (each table is one sorted slice now),
# the per-packet hop log `Packet.Hops` that only tests read (a link's
# DeliverHook sees every hop; MiddleboxAudit.Hops is traceroute's own
# []TraceboxHop and does not match), QUIC's per-endpoint wire freelist and
# per-connection chunk freelist that the network's one buffer pool
# replaced, trace's AnalyzeSenderView, which nothing called, the
# hand-threaded observability switches (obs.Options, the probers' and
# proxies' Observe methods, pep.New without its node) that
# netem.Network.Sink replaced, since a layer is observed iff its network
# is (DESIGN.md §7 Observability), and cc's NewReno, which nothing
# selected.
if grep -rnE 'PartitionedDriver|CrossEdge|AddCrossLink|snapshotRing|peekSnapshot|delayRing|islMemo|candCount|referenceReassignAt|epochPool|runPhase|phaseAssign|WirePoolStats struct|pktRing|txRing|frameQueue|rangeSet|byteRanges|cryptoRecv|offRange|compactMin|nstopped|\) compact\(|rebuildFIB|rebuildHandlers|fibDirty|hDirty|fibGroups|msgsInOrder|insertMsgKey|Hops \[\]Addr|wireFree|chunkFree|AnalyzeSenderView|obs\.Options|\(p \*Prober\) Observe|\(p \*Proxy\) Observe|pep\.New\(|NewNewReno' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark .; then
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
# and TCP bulk-transfer cycles, and the fleet's per-epoch reassignment up
# to the pooled 100k-terminal epoch. Any regression that puts an allocation
# back on one of those paths fails here.
go test ./internal/sim ./internal/netem ./internal/quic ./internal/tcpsim ./internal/fleet \
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

echo "== fleet cell index fuzz smoke (10 s against the all-satellites scan)"
# Any position a terminal can stand at: every satellite it sees is in its
# cell's candidates, and the bound-pruned scan keeps what a scan of every
# satellite keeps, unseeded and seeded.
go test ./internal/fleet -run '^$' -fuzz 'FuzzCellIndex' -fuzztime 10s

echo "== fleet bound fuzz smoke (5 s: stored bound >= exact sinElevation)"
# The property every skipped candidate rests on.
go test ./internal/fleet -run '^$' -fuzz 'FuzzSinElevationBound' -fuzztime 5s

echo "== fleet pooled scan, ten rounds under the race detector"
# 1/2/4/8 workers read the shared candidate and bound tables and write their
# own scratch; assignments and scan counts must not depend on the count.
go test -race ./internal/fleet -run 'TestReassignWorkerInvariance|TestScanStats' -count=10

echo "== fork/join pool, ten rounds under the race detector"
# The pool itself, then the whole epoch campaign on it: results, metrics
# and traces equal for every worker count. -short leaves the 100k-terminal
# case to the one -race pass above (~7 s for both lines on a 2-CPU host).
go test -race ./internal/sim -run 'TestWorkers' -count=10
go test -race -short ./internal/fleet -run 'TestEpochCampaignWorkerInvariance' -count=10

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
