# Gates for the OTEM reproduction. `make check` is the tier-1 bar every
# change must clear; `make race` is the concurrency bar for the batch
# engine and the grids that run on it.

GO ?= go

.PHONY: build test check cross race bench bench-smoke vet lint lint-sarif fmt fuzz-smoke serve-smoke examples-smoke fleet-bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The domain-aware analyzers (internal/lint via cmd/otem-lint):
# allocations reachable from a //lint:hotpath root (allocflow), direct
# and transitive nondeterminism (global rand / time.Now) in the
# simulation core (detflow), discarded errors from module APIs
# (errflow), unwrapped fmt.Errorf error args (errwrapcheck), exact float
# comparisons (floatcompare), goroutines outside internal/runner
# (nakedgoroutine), panics outside Must* constructors (nopanic),
# arithmetic mixing conflicting unit suffixes (unitmix) and stores no
# path reads (unusedwrite). Runs the parallel DAG scheduler with
# cross-package fact propagation. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/otem-lint ./...

# The same sweep rendered as SARIF 2.1.0 for code-scanning upload.
# `|| true` keeps the log usable in CI: findings fail the build via the
# plain `lint` gate, not via this render step.
lint-sarif:
	$(GO) run ./cmd/otem-lint -format=sarif ./... > otem-lint.sarif || true

fmt:
	gofmt -l .

test: build
	$(GO) test ./...

# Tier-1: everything compiles, vet and otem-lint are clean, the portable
# and GOAMD64=v3 builds hold (cross), the full suite passes under the race
# detector, and the benchmark driver's smoke test still reproduces its
# pinned results.
check: vet lint build cross bench-smoke race

# The builds the host's default does not exercise: the portable (non-amd64)
# build of every package that carries assembly must compile, and the
# goldens and the vector-vs-portable identity tests must still hold when
# the compiler may use v3 instructions.
cross:
	GOARCH=arm64 $(GO) vet ./internal/vmath ./internal/hees ./internal/core
	GOAMD64=v3 $(GO) test ./internal/core ./internal/hees ./internal/vmath ./otem

# The full suite under the race detector (slow: MPC-heavy tests included).
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench 'Batch' -benchtime 1x ./internal/experiments

# The benchmark driver (bench/, a module of its own that the root
# `./...` patterns do not reach): vet it and run its smoke test, which
# drives every workload briefly and checks the pinned route bits, fleet
# digests and serve hashes in bench/pins.json.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Every native fuzz target of the module for 5 s beyond its seeds (which
# plain `go test` already runs), found with `go test -list` in each
# package: among them the AVX2 state sweep against its portable stages,
# the vector exp and log, the lint suite's directive parser, call graph
# and SSA builder, the canonical float encoding, each otem-serve request
# decoder, the hmpc and fleet spec resolvers and merged quantile
# sketches. A failing input is written under the package's testdata/fuzz,
# fails the target and stops the run.
fuzz-smoke:
	@set -e; pkgs=$$($(GO) list ./...); for pkg in $$pkgs; do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		for target in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$target $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s $$pkg; \
		done; \
	done

# End-to-end smoke of the HTTP subsystem: boots cmd/otem-serve on an
# ephemeral port, checks /healthz, a real /v1/simulate, the cache-hit
# header, /metrics, and the graceful SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Every program under examples/ built and run once to completion; the
# first non-zero exit fails the target. The examples show the public otem
# facade in use, and no test runs them.
examples-smoke:
	@set -e; for dir in examples/*/; do \
		echo "examples-smoke: $$dir"; \
		$(GO) run ./$$dir; \
	done

# Monte Carlo fleet benchmark: 10k vehicles under the Parallel baseline,
# rolled once on 1 worker and once on GOMAXPROCS workers, vehicles/sec and
# allocs per vehicle-step written to BENCH_fleet.json (committed so fleet
# throughput regressions are visible in review). The harness fails on an
# allocs-per-vehicle-step budget breach, on a committed throughput floor,
# and if the two runs disagree on the result digest — the determinism
# contract re-checked at benchmark scale.
fleet-bench:
	FLEET_BENCH_JSON=$(CURDIR)/BENCH_fleet.json $(GO) test -run TestFleetBenchJSON -count=1 -timeout 20m ./internal/fleet
	cat BENCH_fleet.json
