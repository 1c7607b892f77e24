#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes stays under .bench_build/ in the repository.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 18 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
