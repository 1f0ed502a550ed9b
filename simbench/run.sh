#!/usr/bin/env bash
# Builds simbench from the sources of the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash simbench/run.sh --workload mesh1k-dijkstra --seed 42 --seconds 10 --trace 0
#
# The binary, the Go build cache and the toolchain's temporary files all
# live in .bench_build/ at the checkout root, so nothing is written outside
# the checkout. The first run compiles the standard library into that
# cache; later runs reuse it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/simbench" build -o "$out/simbench" . >&2
exec "$out/simbench" "$@"
