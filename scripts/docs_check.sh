#!/bin/sh
# Docs gate for the Encore reproduction, run by scripts/ci.sh and
# `make docs-check`:
#
#   1. The docs suite exists: README.md, docs/ARCHITECTURE.md, and a README
#      for the examples index and every example.
#   2. Every internal package and command carries a package comment
#      ("// Package ..." / "// Command ..."), so undocumented packages fail
#      CI the way unformatted files do.
#   3. The commands the README's quickstart names actually build.
set -eu

cd "$(dirname "$0")/.."

fail=0

echo "== required docs =="
for doc in \
    README.md \
    docs/ARCHITECTURE.md \
    docs/API.md \
    examples/README.md \
    examples/quickstart/README.md \
    examples/pilotstudy/README.md \
    examples/testbedvalidation/README.md \
    examples/domainfiltering/README.md \
    examples/longitudinal/README.md
do
    if [ ! -s "$doc" ]; then
        echo "missing or empty: $doc"
        fail=1
    fi
done

echo "== package comments =="
for dir in $(go list -f '{{.Dir}}' ./internal/... ./cmd/...); do
    if ! grep -qE '^// (Package|Command) ' "$dir"/*.go 2>/dev/null; then
        echo "no package comment in: ${dir#"$(pwd)/"}"
        fail=1
    fi
done

echo "== README commands build =="
# Every binary the README quickstart references must compile.
for cmd in encore-sim encore-analyze encore-collector encore-coordinator; do
    if ! go build -o /dev/null "./cmd/$cmd"; then
        echo "README-referenced command does not build: cmd/$cmd"
        fail=1
    fi
done
# And every documented example must compile.
for dir in examples/*/; do
    if ! go build -o /dev/null "./$dir"; then
        echo "documented example does not build: $dir"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs check FAILED"
    exit 1
fi
echo "docs OK"
