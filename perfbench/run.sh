#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory (Go build cache, binary, data directories).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -data "$out" "$@"
