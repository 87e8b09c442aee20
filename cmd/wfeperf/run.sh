#!/usr/bin/env bash
# Builds wfeperf from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/wfeperf/run.sh -workload map-churn -seed 1 -seconds 10 -trace 0
#
# The Go build cache, temporary files and the binary all go under
# .bench_build/ in the current directory, so a run touches nothing outside
# the checkout it runs in.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/wfeperf/go.mod" ]]; then
	echo "wfeperf: run from the root of the wfe repository (go.mod and cmd/wfeperf/go.mod not found)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/cmd/wfeperf" build -o "$build/wfeperf" .
exec "$build/wfeperf" "$@"
