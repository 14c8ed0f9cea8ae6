#!/bin/sh
# ci.sh — the full gate: formatting, vet, build, the test suite under the
# race detector, the allocation gates in a plain pass, a fuzz smoke and one
# run of the repo benchmark. Equivalence is proven by tests, not here: every
# fast path is compared with an oracle in its package's _test.go files, and
# the report-level byte-diffs (worker counts, fidelity, transport profile)
# are cmd/starlink-bench's TestRunVariantMatrix. See DESIGN.md §6.
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
# The parallel campaign runner's tests force Workers=4, so the concurrent
# path is exercised even on a single-CPU machine.
go test -race ./...

echo "== allocation gates (0 allocs per event / packet / segment / epoch, no race detector)"
# testing.AllocsPerRun under -race can count instrumentation allocations,
# so the zero-allocation gates get a plain pass: the scheduler's timer
# churn, the netem send->route->deliver, echo and transit paths, the QUIC
# and TCP bulk-transfer cycles, and the fleet's per-epoch reassignment up
# to the pooled 100k-terminal epoch. Any regression that puts an allocation
# back on one of those paths fails here.
go test ./internal/sim ./internal/netem ./internal/quic ./internal/tcpsim ./internal/fleet \
    -run 'TestAllocGate' -count=1

echo "== SACK scoreboard fuzz smoke (10 s against the fresh-slice oracle)"
# The seed corpus already ran in the -race pass; this adds ten seconds of
# mutated insert/consume/trim/query programs, every step compared with the
# fresh-slice implementation kept in the test file.
go test ./internal/tcpsim -run '^$' -fuzz 'FuzzByteRanges' -fuzztime 10s

echo "== benchmark smoke (one short small_packets run)"
# The benchmark must build from a clean checkout, run, and report a correct
# run with no failed operation. Performance claims need ten alternating
# pairs against the parent (benchmark/README.md); this is not that.
last=$(bash benchmark/run.sh --workload small_packets --seed 1 --seconds 2 --trace 0 | tail -n 1)
echo "$last"
case "$last" in
*'"correct":true'*'"failed":0'*) ;;
*)
    echo "benchmark smoke: last line does not report correct:true, failed:0" >&2
    exit 1
    ;;
esac

echo "CI: all green"
