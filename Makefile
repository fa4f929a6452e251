GO ?= go
MGLINT := bin/mglint

.PHONY: all build vet test race bench ci clean tcp-smoke serve-smoke mglint lint lint-fix lint-fix-check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# mglint is the repo's own go/analysis suite (internal/analysis); it runs
# both standalone and as a go vet -vettool. See DESIGN.md "Static analysis
# & enforced invariants".
mglint:
	$(GO) build -o $(MGLINT) ./cmd/mglint

# lint runs the suite through BOTH drivers and asserts they agree: the
# standalone loader (-json, one diagnostic per line, waived findings
# included with suppressed=true) and the go vet vettool protocol push
# facts through different plumbing (in-process maps vs gob vetx files),
# so a pass certifies both paths saw the same set of unsuppressed
# findings — zero, or lint fails with the findings printed.
lint: mglint
	@set -e; \
	json=$$(mktemp); vet=$$(mktemp); trap 'rm -f "$$json" "$$vet"' EXIT; \
	echo "mglint standalone (-json)"; \
	./$(MGLINT) -json ./... >"$$json" || { cat "$$json"; exit 1; }; \
	echo "mglint vettool (go vet protocol)"; \
	$(GO) vet -vettool=$(MGLINT) ./... 2>"$$vet" || { cat "$$vet"; exit 1; }; \
	a=$$(grep -c '"suppressed":false' "$$json" || true); \
	b=$$(grep -cE '\.go:[0-9]+' "$$vet" || true); \
	if [ "$$a" != "$$b" ]; then \
	  echo "mglint drivers disagree: standalone reported $$a findings, vettool $$b"; \
	  cat "$$json" "$$vet"; exit 1; \
	fi
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

# lint-fix applies every suggested fix (errflow rewrites to errors.Is,
# errors-import insertion, ...) in place; waived findings are left alone.
lint-fix: mglint
	./$(MGLINT) -fix ./...

# lint-fix-check proves -fix on a deliberately dirty fixture produces a
# gofmt-clean tree that lints clean on re-run (CI runs this).
lint-fix-check: mglint
	./scripts/lint_fix_check.sh

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
# micro-ablations in bench_test.go stay reachable through `go test -bench`.
bench:
	bash bench/run.sh --workload all --seed 1 --seconds 20 --trace 0

clean:
	rm -rf .bench_build/
