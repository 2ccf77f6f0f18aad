#!/usr/bin/env bash
# Builds mocperf from source into .bench_build/ (inside the checkout, with
# the Go caches there too, so nothing is read or written outside it) and
# runs it with the driver's arguments. Run from the repository root:
#   bash bench/run.sh --workload pec_train --seed 1 --seconds 20 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/mocperf" ./bench/cmd/mocperf
exec "$build/mocperf" "$@"
