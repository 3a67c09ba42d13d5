#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build leaves behind — the binary, the Go build cache,
# the toolchain's temporary files — goes under .bench_build/ in the
# checkout, so a run writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
