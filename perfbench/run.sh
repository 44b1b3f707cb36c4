#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload q1-spec --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/home/gomod" \
		GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" -out-dir "$out" "$@"
