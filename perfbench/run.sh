#!/usr/bin/env bash
# Builds the SpotFi benchmark from source and runs one workload. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload office-full --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and traced runs' span files all stay under
# .bench_build/ in the current directory. Build output goes to standard
# error, so the last line of standard output is the result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CACHE_HOME="$out/cache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
