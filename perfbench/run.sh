#!/usr/bin/env bash
# Builds the benchmark and runs one workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# The benchmark is this directory's test binary (see README.md). Every
# build artefact, the Go build cache included, stays in .bench_build at
# the root of the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench test -c -o "$out/perfbench.test" . >&2
exec "$out/perfbench.test" "$@"
