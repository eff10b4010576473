#!/usr/bin/env bash
# Builds snaccperf from the source tree it sits in and runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/snaccperf/run.sh --workload seq-4m --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, binary)
# goes under .bench_build/ in the current directory, and no download is
# attempted: the benchmark has no dependency outside this repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/snaccperf"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/cmd/snaccperf" build -o "$out/snaccperf" .
exec "$out/snaccperf" "$@"
