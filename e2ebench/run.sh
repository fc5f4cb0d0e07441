#!/usr/bin/env bash
# Builds the benchmark and the rsud daemon from source, then runs one
# workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload chain-net --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traced-run artefacts stay inside
# the checkout (.bench_build/ and .bench_out/).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C e2ebench -o "$build/e2ebench" .
go build -C e2ebench -o "$build/rsud" itsbed/cmd/rsud
exec "$build/e2ebench" --rsud "$build/rsud" --out "$root/.bench_out" "$@"
