#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it, from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload paper-count --seed 1 --seconds 10 --trace 0
#
# The Go build cache and every file a run writes stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/run" "$@"
