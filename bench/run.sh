#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout)
# and runs it with the arguments given. Run from the repository root:
#
#   bash bench/run.sh --workload fct-websearch --seed 1 --seconds 8 --trace 0
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Everything go writes stays inside the checkout: build cache, temporary
# files, and (through XDG_CONFIG_HOME) the go command's telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local
if [ -z "${BENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
fi
export BENCH_COMMIT="${BENCH_COMMIT:-unknown}"
(cd "$root/bench" && go build -o "$build/fnccperf" .) >&2
exec "$build/fnccperf" "$@"
