#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every
# argument through (see main.go and README.md). Run it from the
# repository root:
#
#   bash livebench/run.sh --workload kv-readheavy-6n --seed 1 --seconds 10 --trace 0
#
# Everything it builds, writes and caches stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/livebench" && go build -o "$build/livebench" .)
exec "$build/livebench" --out "$build" "$@"
