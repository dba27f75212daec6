#!/usr/bin/env bash
# Builds the safesensed service and this benchmark from the checkout,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash servebench/run.sh --workload run_closed_form --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binaries, span dumps)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0

go build -o "$out/safesensed" ./cmd/safesensed
go -C servebench build -o "$out/servebench" .
exec "$out/servebench" "$@"
