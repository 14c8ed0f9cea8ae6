#!/bin/sh
# ci.sh — the full gate: formatting, vet, build, and the test suite under
# the race detector (the parallel campaign runner's tests force Workers=4
# so the concurrent path is exercised even on a single-CPU machine).
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

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== packet datapath allocation gate (0 allocs/packet, no race detector)"
# testing.AllocsPerRun under -race counts instrumentation allocations, so
# the zero-allocation gates run in a plain pass. Any regression that puts
# an allocation back on the send->route->deliver, echo-responder, or
# transit-forward path fails here.
go test ./internal/netem -run 'TestAllocGate' -count=1

echo "== QUIC datapath allocation gate (0 allocs/packet, 0 bytes/payload byte, no race detector)"
# The steady-state bulk-transfer cycle — cut a frame from the filler run,
# serialize into a recycled wire buffer, deliver, parse into the endpoint's
# scratch, ACK, release buffer, sent-packet record and frame struct — must
# not allocate per packet, nor anything proportional to the payload.
go test ./internal/quic -run 'TestAllocGate' -count=1

echo "== TCP datapath allocation gate (0 allocs/segment, no race detector)"
# The steady-state bulk-transfer cycle with loss — segment from the
# network's pool, record into the in-flight ring, both sides' scoreboards
# updated in place, SACK recovery and retransmission, segment released —
# must not allocate per segment.
go test ./internal/tcpsim -run 'TestAllocGate' -count=1

echo "== SACK scoreboard fuzz smoke (10 s against the fresh-slice oracle)"
# The seed corpus already runs in the -race pass above; this adds ten
# seconds of mutation of insert/consume/trim/query programs, every step
# compared with the fresh-slice implementation kept in the test file.
go test ./internal/tcpsim -run '^$' -fuzz 'FuzzByteRanges' -fuzztime 10s

echo "== fleet reassignment allocation gate (0 allocs/epoch, no race detector)"
# Same idea for the planet-scale fleet: the per-epoch cell-indexed
# reassignment (snapshot lookup, candidate build, terminal scan, beam
# accounting) must stay allocation-free in steady state — including the
# 100k-terminal pooled epoch path (TestAllocGateFleetEpoch100k), the
# regime the 1M bench sweep scales from.
go test ./internal/fleet -run 'TestAllocGate' -count=1

echo "== starlink-bench smoke (quick campaigns + bench.json schema)"
ci_tmp=$(mktemp -d /tmp/bench_ci.XXXXXX)
trap 'rm -rf "$ci_tmp"' EXIT
go run ./cmd/starlink-bench -quick -workers 2 -bench.json "$ci_tmp/bench.json" >/dev/null
go run ./cmd/starlink-bench -validate "$ci_tmp/bench.json"

echo "== observability determinism (triple run, byte-diffed exports)"
# Same quick campaign three times with different worker AND PDES
# scenario-worker counts: the metrics registry and the binary event
# trace must come out byte-identical, or the sim has a nondeterminism
# leak. Every quick run includes the 10k-terminal fleet scenario and the
# packet-level traffic scenario on the conservative PDES engine, so this
# byte-diffs the fleet's per-region metrics, the traffic scenario's
# probe counters and RTT histograms, the epoch trace, and the figures
# table across -scenario.workers 1/2/8.
go run ./cmd/starlink-bench -quick -workers 1 -scenario.workers 1 \
    -trace "$ci_tmp/trace1.bin" -metrics.json "$ci_tmp/metrics1.json" >"$ci_tmp/figures1.txt"
go run ./cmd/starlink-bench -quick -workers 4 -scenario.workers 2 \
    -trace "$ci_tmp/trace2.bin" -metrics.json "$ci_tmp/metrics2.json" >"$ci_tmp/figures2.txt"
go run ./cmd/starlink-bench -quick -workers 8 -scenario.workers 8 \
    -trace "$ci_tmp/trace3.bin" -metrics.json "$ci_tmp/metrics3.json" >"$ci_tmp/figures3.txt"
cmp "$ci_tmp/trace1.bin" "$ci_tmp/trace2.bin"
cmp "$ci_tmp/trace1.bin" "$ci_tmp/trace3.bin"
cmp "$ci_tmp/metrics1.json" "$ci_tmp/metrics2.json"
cmp "$ci_tmp/metrics1.json" "$ci_tmp/metrics3.json"
cmp "$ci_tmp/figures1.txt" "$ci_tmp/figures2.txt"
cmp "$ci_tmp/figures1.txt" "$ci_tmp/figures3.txt"

echo "== transport paper-profile identity (-transport paper vs default, byte-diffed)"
# Explicitly selecting the paper transport profile must be a no-op: the
# profile plumbing touches every endpoint configuration (QUIC and TCP),
# so the figures must come out byte-identical to runs 1 and 3 above,
# at both worker counts. (The modern profile's own determinism is pinned
# by TestTransportModernWorkerInvariance and TestBBRDeterminism in the
# -race suite above, and the paper-vs-modern delta section rides the
# bench.json smoke through -validate.)
go run ./cmd/starlink-bench -quick -workers 1 -scenario.workers 1 -transport paper \
    >"$ci_tmp/figures_paper1.txt"
go run ./cmd/starlink-bench -quick -workers 8 -scenario.workers 8 -transport paper \
    >"$ci_tmp/figures_paper8.txt"
cmp "$ci_tmp/figures1.txt" "$ci_tmp/figures_paper1.txt"
cmp "$ci_tmp/figures1.txt" "$ci_tmp/figures_paper8.txt"

echo "== modern-transport determinism under the race detector"
# BBR + pacing + 0-RTT must stay a pure function of (config, seed):
# bit-identical across worker counts, stable across repeat runs, and
# free of data races in the sharded campaign runner.
go test -race ./internal/cc -run 'TestBBRDeterminism' -count=1
go test -race ./internal/core -run 'TestTransportModernWorkerInvariance' -count=1

echo "== fidelity equivalence (full emulation vs tiers + fast-forward, byte-diffed)"
# Runs 1-3 above use the default -fidelity auto (link tiers + analytic
# fast-forward). This run forces the complete reference datapath under
# every packet and must produce byte-identical traces, metrics and
# figures: the fast path is only allowed to change wall-clock time.
# (The >= 3x wall-clock gate itself rides the bench.json fidelity
# section through -validate in the smoke step.)
go run ./cmd/starlink-bench -quick -workers 1 -scenario.workers 1 -fidelity full \
    -trace "$ci_tmp/trace4.bin" -metrics.json "$ci_tmp/metrics4.json" >"$ci_tmp/figures4.txt"
cmp "$ci_tmp/trace1.bin" "$ci_tmp/trace4.bin"
cmp "$ci_tmp/metrics1.json" "$ci_tmp/metrics4.json"
cmp "$ci_tmp/figures1.txt" "$ci_tmp/figures4.txt"

echo "== partitioned epoch campaign at 100k terminals (1/2/8 workers, byte-diffed)"
# The fleet scale tentpole: the same quick campaign with the fleet
# scenario scaled to 100k terminals, run with 1 (sequential reference),
# 2 and 8 epoch-campaign workers. The pooled fork/join path with
# per-worker scratch and ordered merge must produce byte-identical
# results, metrics and traces — determinism at the scale the 1M sweep
# extrapolates from.
go run ./cmd/starlink-bench -quick -fleet.terminals 100000 -workers 1 -scenario.workers 1 \
    -trace "$ci_tmp/trace100k_1.bin" -metrics.json "$ci_tmp/metrics100k_1.json" >"$ci_tmp/figures100k_1.txt"
go run ./cmd/starlink-bench -quick -fleet.terminals 100000 -workers 2 -scenario.workers 2 \
    -trace "$ci_tmp/trace100k_2.bin" -metrics.json "$ci_tmp/metrics100k_2.json" >"$ci_tmp/figures100k_2.txt"
go run ./cmd/starlink-bench -quick -fleet.terminals 100000 -workers 8 -scenario.workers 8 \
    -trace "$ci_tmp/trace100k_8.bin" -metrics.json "$ci_tmp/metrics100k_8.json" >"$ci_tmp/figures100k_8.txt"
cmp "$ci_tmp/trace100k_1.bin" "$ci_tmp/trace100k_2.bin"
cmp "$ci_tmp/trace100k_1.bin" "$ci_tmp/trace100k_8.bin"
cmp "$ci_tmp/metrics100k_1.json" "$ci_tmp/metrics100k_2.json"
cmp "$ci_tmp/metrics100k_1.json" "$ci_tmp/metrics100k_8.json"
cmp "$ci_tmp/figures100k_1.txt" "$ci_tmp/figures100k_2.txt"
cmp "$ci_tmp/figures100k_1.txt" "$ci_tmp/figures100k_8.txt"

echo "CI: all green"
