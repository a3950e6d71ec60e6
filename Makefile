# Gates for the OTEM reproduction. `make check` is the tier-1 bar every
# change must clear; `make race` is the concurrency bar for the batch
# engine and the grids that run on it.

GO ?= go

.PHONY: build test check race race-grids bench bench-smoke vet lint lint-sarif lint-vet lint-bench fmt serve-smoke sim-bench fleet-bench hmpc-bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The domain-aware analyzers (internal/lint via cmd/otem-lint): exact
# float comparisons, goroutines outside internal/runner, unwrapped
# fmt.Errorf error args, panics outside Must* constructors, direct and
# transitive nondeterminism (global rand / time.Now) in the simulation
# core, discarded errors from module APIs, and arithmetic mixing
# conflicting unit suffixes. Runs the parallel DAG scheduler with
# cross-package fact propagation. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/otem-lint ./...

# The same sweep rendered as SARIF 2.1.0 for code-scanning upload.
# `|| true` keeps the log usable in CI: findings fail the build via the
# plain `lint` gate, not via this render step.
lint-sarif:
	$(GO) run ./cmd/otem-lint -format=sarif ./... > otem-lint.sarif || true

# The same analyzers driven by the go command's unitchecker protocol,
# proving cmd/otem-lint works as a drop-in `go vet -vettool` with facts
# flowing between compilation units through vetx files.
lint-vet:
	$(GO) build -o bin/otem-lint ./cmd/otem-lint
	$(GO) vet -vettool=bin/otem-lint ./...

# Sequential reference driver vs parallel DAG scheduler over the whole
# module; records best-of-three times and the speedup at both GOMAXPROCS=1
# and GOMAXPROCS=NumCPU to BENCH_lint.json (committed so scheduler
# regressions are visible in review, and comparable across machines).
lint-bench:
	$(GO) run ./cmd/otem-lint -benchjson BENCH_lint.json ./...

fmt:
	gofmt -l .

test: build
	$(GO) test ./...

# Tier-1: everything compiles, vet and otem-lint are clean, the full
# suite passes under the race detector, and the benchmark driver's smoke
# test still reproduces its pinned results.
check: vet lint build bench-smoke
	$(GO) test -race ./...

# The full suite under the race detector (slow: MPC-heavy tests included).
race:
	$(GO) test -race ./...

# Race-enabled runs of just the batch-engine-heavy paths: the runner
# itself, the Fig. 8/9 sweep and Table I grids, the DSE grid and the
# facade batch API.
race-grids:
	$(GO) test -race -run 'Runner|Pool|Map|Cancel|Panic|Sweep|TableI|Explore|Batch|Progress' \
		./internal/runner ./internal/experiments ./internal/dse ./otem

bench:
	$(GO) test -bench 'Batch' -benchtime 1x ./internal/experiments

# The benchmark driver (bench/, a module of its own that the root
# `./...` patterns do not reach): vet it and run its smoke test, which
# drives every workload briefly and checks the pinned route bits, fleet
# digests and serve hashes in bench/pins.json.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# End-to-end smoke of the HTTP subsystem: boots cmd/otem-serve on an
# ephemeral port, checks /healthz, a real /v1/simulate, the cache-hit
# header, /metrics, and the graceful SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Steady-state hot-path benchmark: a full UDDS drive cycle under the OTEM
# controller, ns/step, steps/sec and allocs/step written to BENCH_sim.json
# (committed so hot-path regressions are visible in review). The harness
# also fails if allocs/step exceeds the committed budget — the zero-alloc
# replan contract enforced end to end.
sim-bench:
	SIM_BENCH_JSON=$(CURDIR)/BENCH_sim.json $(GO) test -run TestSimBenchJSON -count=1 -timeout 20m ./internal/core
	cat BENCH_sim.json

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

# Hierarchical MPC benchmark: cold outer-plan latency (the POST /v1/plan
# cache-miss cost), the warm per-block outer replan on a drifting plant,
# and end-to-end two-layer throughput on UDDS, written to BENCH_hmpc.json
# (committed so planner regressions are visible in review). The harness
# fails if the warm outer replan allocates — the zero-alloc hot-path
# contract of the scheduling layer.
hmpc-bench:
	HMPC_BENCH_JSON=$(CURDIR)/BENCH_hmpc.json $(GO) test -run TestHMPCBenchJSON -count=1 -timeout 20m ./internal/hmpc
	cat BENCH_hmpc.json
