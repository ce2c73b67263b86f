#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# Go's caches and the binary under .bench_build, reports and spans
# under .bench_out. No network is used (GOPROXY=off; the benchmark
# module reaches the repository through a local replace).
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench/run.sh: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
