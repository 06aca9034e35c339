#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash benchmark/run.sh --workload decode_cold --seed 1 --seconds 16 --trace 0
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR if the driver sets it, else .bench_build at the root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go -C "$here" build -o "$build/eclipse-benchmark" .
exec "$build/eclipse-benchmark" -trace-out "$build/trace.json" "$@"
