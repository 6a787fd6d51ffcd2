#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload lib-corpus --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, the traced ledgers and the store log all
# stay under .bench_build/ in the current directory.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
