GO ?= go

.PHONY: check fmt vet build test race bench

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
