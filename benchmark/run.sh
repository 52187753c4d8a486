#!/usr/bin/env bash
# Builds and runs the benchmark of record from the root of a checkout:
#
#   bash benchmark/run.sh --workload cascade --seed 1 --seconds 25 --trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build/
# in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root/benchmark" && go build -o "$build/asmbench" .)
exec "$build/asmbench" "$@"
