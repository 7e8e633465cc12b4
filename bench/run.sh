#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own in this directory) and runs
# it from the repository root with the arguments given. Everything the build
# writes — Go's build cache included — stays in .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local CGO_ENABLED=0
go build -C bench -o "$build/taskgrain-bench" . >&2
exec "$build/taskgrain-bench" "$@"
