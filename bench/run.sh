#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it, from the root of a
# checkout:
#
#   bash bench/run.sh --workload drive_otem --seed 1 --seconds 17 --trace 0
#
# Everything the go tool writes (build cache, temporaries, telemetry, the
# binary) stays under .bench_build in the checkout. Outside a full checkout
# the build fails, so the script exits non-zero without printing a result.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$build/otem-bench" .
exec "$build/otem-bench" "$@"
