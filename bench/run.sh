#!/usr/bin/env bash
# The driver's entry point, run from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds encore-bench from source into .bench_build/ (the module under
# bench/ imports the repository's internal packages through the replace in
# bench/go.mod, so a directory without the repository around it fails here,
# before any result is printed) and hands the arguments over. Everything the
# build and the run write stays inside the checkout: the Go build cache, the
# temporary directories, the WALs of the program under test.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/bench" && go build -o "$build/encore-bench" ./cmd/encore-bench)
exec "$build/encore-bench" "$@"
