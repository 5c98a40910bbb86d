#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload epoch-active --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ (or
# $CARGO_TARGET_DIR when set): the build cache, GOPATH and the go command's
# config directory (where it keeps telemetry counters) all point there, so
# nothing outside the checkout is written.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
