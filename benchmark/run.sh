#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build and the run write — Go's
# build cache and temp files, the binary, the archives — stays under
# .bench_build/ in the current directory (the repository root).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go build -C benchmark -o "$build/xarchbench" .
exec "$build/xarchbench" "$@"
