#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash benchmark/run.sh --workload quic_bulk --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (Go's build cache, module path and telemetry
# counters included) stays under .bench_build/ in the checkout, and the
# toolchain is pinned to the local one so that nothing is fetched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Without the program there is nothing to measure; say so before any process
# is started.
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: no go.mod and internal/ beside benchmark/: the program under test is not in this checkout" >&2
	exit 2
fi

build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# The go command, with telemetry in its default "local" mode, forks a
# daemonised "go ** telemetry **" sidecar that outlives it. The mode file is
# the only switch (the GOTELEMETRY variable is read-only), so turn it off in
# the private config directory before go runs: this script must leave no
# process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

# A no-op when the binary is already up to date with the sources.
go build -buildvcs=false -o "$build/benchmark" ./benchmark

exec "$build/benchmark" "$@"
