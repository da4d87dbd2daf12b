#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ (Go's build cache included, so
# nothing is written outside the checkout) and runs it from the
# repository root with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$root/bench" -o "$build/gamedb-bench" .
cd "$root"
exec "$build/gamedb-bench" "$@"
