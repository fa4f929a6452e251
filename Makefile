GO ?= go
MGLINT := bin/mglint

.PHONY: all build vet test race bench ci clean tcp-smoke serve-smoke mglint lint loc

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# mglint is the repo's own analyzer suite (internal/analysis): the
# determinism, hot-path-allocation, write-path and error-handling checks
# stock vet has no equivalent for. See DESIGN.md "Static analysis &
# enforced invariants".
mglint:
	$(GO) build -o $(MGLINT) ./cmd/mglint

# lint runs mglint, then stock vet (copylocks, lostcancel,
# testinggoroutine, ... cover what mglint does not), then a gofmt check.
lint: mglint
	./$(MGLINT) ./...
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

# loc prints the non-test Go lines of every package directory and the
# module total (testdata excluded): the count ROADMAP acceptance criteria
# use. `scripts/loc.sh DIR` counts another checkout.
loc:
	./scripts/loc.sh

race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/nn/ ./internal/tensor/ ./internal/dist/ ./internal/serve/

ci: lint test

# Elastic fault-tolerance smoke: 3-rank TCP world on loopback, one rank
# SIGKILL'd mid-run, survivors reform and finish from the checkpoint.
tcp-smoke:
	./scripts/tcp_smoke.sh

# Overload smoke: a tiny-capacity mgserve is flooded past its admission
# queue and a per-client quota; every refusal must be typed (429/503 +
# Retry-After, never a 500) and SIGTERM must shut down cleanly.
serve-smoke:
	./scripts/serve_overload_smoke.sh

# Run the repository benchmark BENCHMARK.json names: every workload once,
# untraced, each in a process of its own (see bench/README.md). The
# design-choice ablations DESIGN.md cites are `go test -bench` benchmarks in
# the packages they measure (internal/fem, internal/core, internal/dist).
bench:
	bash bench/run.sh --workload all --seed 1 --seconds 20 --trace 0

clean:
	rm -rf .bench_build/
