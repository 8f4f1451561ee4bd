#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout of the repository:
#
#   bash perfbench/run.sh --workload serve-repeat --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_COMMIT=$commit exec "$build/perfbench" --out "$build" "$@"
