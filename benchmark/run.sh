#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload corpus-certified --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary, and the
# benchmark's own state. The last line of standard output is the result.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build/benchmark"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export TMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" "$@"
