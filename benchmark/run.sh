#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (Go build cache, GOPATH, temporary files, the binary) stays under
# .bench_build in the checkout this is run from; arguments go to the
# benchmark unchanged.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/esds-benchmark" .
exec "$build/esds-benchmark" "$@"
