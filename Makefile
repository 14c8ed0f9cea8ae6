GO ?= go

.PHONY: check fmt vet build test race bench pairs testtime reach

check: ## gofmt + vet + build + race-enabled tests (what CI runs)
	./ci.sh

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Wall time per package and the ten slowest tests of one uncached tier-1 run
# (cmd/internal/testtime); make testtime TESTFLAGS=-race for the race pass.
TESTFLAGS ?=
testtime:
	$(GO) test -json -count=1 $(TESTFLAGS) ./... | $(GO) run ./cmd/internal/testtime

# One short run of the repo benchmark (BENCHMARK.json, benchmark/README.md):
# builds from this checkout and prints the end-to-end metric set. A
# performance claim needs ten alternating pairs against the parent, not this.
bench:
	bash benchmark/run.sh --workload small_packets --seed 1 --seconds 2 --trace 0

# Ten alternating parent/change pairs of one workload, what a performance
# claim rests on: make pairs WORKLOAD=fleet_scale [SEED=1] [PARENT=HEAD~1]. The
# parent builds from a git worktree under .bench_build/. --out replaces a set's
# earlier run, so each pair is compared as it lands; {parent,change}.jsonl keep all.
PARENT ?= HEAD~1
SEED ?= 1
RUN_SECONDS ?= 12
PAIRS = $(CURDIR)/.bench_build/pairs
pairs:
	@test -n "$(WORKLOAD)" || { echo "usage: make pairs WORKLOAD=name [SEED=n] [PARENT=rev]" >&2; exit 2; }
	rm -rf $(PAIRS) && git worktree prune && git worktree add --detach $(PAIRS)/parent $(PARENT)
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then dir=$(PAIRS)/parent; else dir=$(CURDIR); fi; \
			bash $$dir/benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(RUN_SECONDS) --trace 0 --out $(PAIRS)/$$side.json | tail -n 1 >>$(PAIRS)/$$side.jsonl || exit 1; \
		done; \
		echo "== pair $$i"; $(GO) run ./benchmark -compare $(PAIRS)/parent.json $(PAIRS)/change.json | grep -v -e '^$$' -e 'missing from one set'; \
	done
	git worktree remove --force $(PAIRS)/parent

# Which functions no run reaches: builds every command and the benchmark
# with coverage over the whole module into a temporary directory, runs the
# quick report (paper and modern transport, with its exports), each
# single-campaign command at small sizes and every benchmark workload at
# its tiny sizes, untraced and traced, and prints
# the functions none of those runs entered. A function whose body holds no
# statement (an interface method written `{}`) is never listed: `go tool
# cover -func` reports it at 0.0 % whether it ran or not, so the recipe
# keeps a 0.0 % function only when a block of the profile with a statement
# starts between its line and the next function's. A function listed here
# that no test uses as an oracle or a fake is a deletion candidate. Not
# part of ci.sh or tier-1 (~3.5 min).
reach:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	mkdir "$$dir/bin" "$$dir/cov"; export GOCOVERDIR="$$dir/cov"; b="$$dir/bin"; \
	$(GO) build -cover -coverpkg=starlinkperf/... -o "$$b/" ./cmd/... ./benchmark; \
	run() { "$$@" >/dev/null 2>&1 || { echo "reach: $$* failed" >&2; exit 1; }; }; \
	run "$$b/starlink-bench" -quick -workers 2 -trace "$$dir/t.bin" -metrics.json "$$dir/m.json"; \
	run "$$b/starlink-bench" -quick -workers 2 -transport modern -trace "$$dir/t.jsonl"; \
	run "$$b/pingmon" -days 1 -interval 2h -reps 3 -workers 2; \
	run "$$b/pingmon" -days 1 -interval 6h -scenario; \
	run "$$b/speedtest" -count 1 -gap 1s; \
	run "$$b/speedtest" -count 1 -gap 1s -conns 2 -tech satcom; \
	run "$$b/webbench" -visits 2 -tech wired -v; \
	run "$$b/webbench" -visits 2 -tech satcom; \
	run "$$b/quicbench" -mode h3 -n 1 -size 2 -pcap "$$dir/q.pcap"; \
	run "$$b/quicbench" -mode h3 -n 1 -size 2 -dir up; \
	run "$$b/quicbench" -mode messages -n 1 -dur 20s -transport modern; \
	run "$$b/tracebox"; \
	run "$$b/tracebox" -tech satcom; \
	run "$$b/errant-export" -tests 1 -o "$$dir/p.json"; \
	for w in paper_report quic_bulk tcp_bulk small_packets fleet_scale; do \
		run "$$b/benchmark" --workload $$w --tiny --seconds 1 --trace 0; \
		run "$$b/benchmark" --workload $$w --tiny --seconds 1 --trace 1; \
	done; \
	$(GO) tool covdata textfmt -i="$$dir/cov" -o "$$dir/cov.txt"; \
	$(GO) tool cover -func="$$dir/cov.txt" | awk '$$1 != "total:" { split($$1, p, ":"); print p[1], p[2], 0, $$2, $$NF }' >"$$dir/funcs"; \
	awk 'NR > 1 && $$2 > 0 { split($$1, p, ":"); split(p[2], l, "."); print p[1], l[1], 1 }' "$$dir/cov.txt" | sort -u >"$$dir/blocks"; \
	sort -k1,1 -k2,2n -k3,3n "$$dir/funcs" "$$dir/blocks" | awk ' \
		function flush() { if (fn != "" && stmts && pct == "0.0%") print fn, name; fn = "" } \
		$$1 != file { flush(); file = $$1 } \
		$$3 == 0 { flush(); fn = $$1 ":" $$2 ":"; sub(/^starlinkperf\//, "", fn); name = $$4; pct = $$5; stmts = 0; next } \
		{ stmts = 1 } \
		END { flush() }'
