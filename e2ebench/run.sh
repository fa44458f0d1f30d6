#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   bash e2ebench/run.sh --workload validation --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, tool configuration and the binary
# stay under .bench_build/ in the checkout, so the first run in a fresh
# checkout also compiles the standard library.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
