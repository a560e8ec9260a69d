#!/usr/bin/env bash
# Entry point named by BENCHMARK.json, run from the root of a checkout:
# builds the benchmark from source into .bench_build/ and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, temporary
# files) stays under .bench_build/ too, so a run touches nothing outside the
# checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C benchmark -o "$build/gcbenchmark" .
exec "$build/gcbenchmark" "$@"
