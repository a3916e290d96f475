#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload cold-suite --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$build/phbench" .
exec "$build/phbench" "$@"
