#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload hot-single --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build,
# or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
