#!/usr/bin/env bash
# Builds the performance benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/perf/run.sh --workload rr --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, temporary
# files, the binary) goes under .bench_build/ in the checkout, and the build
# never reaches the network. The benchmark is its own Go module, so the
# build fails, and nothing is printed, when the rest of the repository is
# not beside it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/bench/perf" build -o "$out/perf" .
cd "$root"
exec "$out/perf" "$@"
