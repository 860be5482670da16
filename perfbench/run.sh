#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# binary, telemetry) stays under .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
