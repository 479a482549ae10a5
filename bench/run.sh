#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the arguments given.
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload hot_small --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh                      # every workload, both ways
#
# Everything the build and the run write stays under .bench_build in
# the checkout: Go's build cache and temporary files, the binary, and
# the on-disk databases of publish_cycle and the rungs.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache
export GOTMPDIR=$build/tmp

# cmd/bench is a module of its own that replaces "repro" with ../.., so
# a directory without the repository's go.mod fails here, before any run.
go build -C "$root/cmd/bench" -o "$build/bench" .

exec "$build/bench" "$@"
