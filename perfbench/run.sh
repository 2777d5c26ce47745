#!/usr/bin/env bash
# Builds perfbench from source and runs it; arguments go to the benchmark.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the generated graphs stay under
# .bench_build/ in the current directory.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal/server || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/server or perfbench/go.mod missing)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the toolchain's own config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
