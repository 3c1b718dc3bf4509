#!/bin/sh
# Builds the divload benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   sh cmd/divload/run.sh --workload morsel-zipf --seed 1 --seconds 20 --trace 0
#
# The binary and every Go cache, temporary and config file go under
# .bench_build in the current directory, so nothing is written elsewhere.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/cmd/divload" && go build -o "$out/divload" .)
exec "$out/divload" "$@"
