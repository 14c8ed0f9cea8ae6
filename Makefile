GO ?= go

.PHONY: check fmt vet build test race bench pairs

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
