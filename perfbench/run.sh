#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.  Run from
# the repository root:
#
#   bash perfbench/run.sh --workload hbench --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
rev=$(HOME="$build" GIT_CONFIG_NOSYSTEM=1 git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
# Build under a private name and rename, so concurrent runs never exec a
# half-written binary.
(cd "$root/perfbench" && go build -o "$build/perfbench.$$" . && mv -f "$build/perfbench.$$" "$build/perfbench") >&2
exec "$build/perfbench" -rev "$rev" "$@"
