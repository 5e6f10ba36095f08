#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source inside
# the checkout, then run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build and the run write stays under the checkout:
# the Go build cache, the linker's temporary files and the binary under
# .bench_build/, the fleets' stores and the trace files under
# benchmark/out/. Nothing is downloaded: the module has no dependencies
# outside the standard library.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

# A warm cache makes this a sub-second no-op; the first build in a
# checkout compiles the standard library too.
go build -o "$build/bpperf" ./benchmark

exec "$build/bpperf" "$@"
