#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload portal|report|semijoin --seed N --seconds S --trace 0|1
# Run from the root of the checkout. The binary, the Go build cache and
# the traced runs' spans all stay under .bench_build/ (or $CARGO_TARGET_DIR).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOMODCACHE=$build/gomodcache
export GOENV=off GOTELEMETRY=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
PERFBENCH_TRACE_DIR=$build/traces exec "$build/perfbench" "$@"
