#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload step_look --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh check A/*.out -- B/*.out
#
# The first form runs one workload and prints its metrics as a JSON line;
# the second compares two sets of saved run outputs (see bench/README.md).
# Build outputs and Go's caches are kept under .bench_build/, so nothing is
# written outside the checkout. The benchmark needs no module from outside
# the repository, so the Go tool is told not to fetch any.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOPROXY=off GOSUMDB=off

if [[ "${1:-}" == check ]]; then
	shift
	go -C bench build -o "$out/check" ./check
	exec "$out/check" "$@"
fi
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
