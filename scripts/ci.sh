#!/bin/sh
# CI gate for the Encore reproduction: formatting, vet, build, the docs
# suite (scripts/docs_check.sh: required docs present, package comments on
# every package, README-referenced commands build), the full test suite
# (including the concurrent ingest soak, the WAL kill-and-restart tests, and
# the federation soak — concurrent edge commits against a flapping upstream
# with a WAL-backed forwarder) under the race detector, one iteration of every
# root-package benchmark (the paper's evaluation, E1-E16), of the forwarder's
# catch-up and drain benchmarks and of the store-commit and admit benchmarks,
# a -count=20 race run of the forwarder's in-flight and cursor tests, the separate
# bench/ module's vet and tests, the
# deterministic chaos suite at fixed seeds (scripts/chaos.sh), and the
# campaign-tier smoke
# (scripts/campaign_smoke.sh: grid/dispatcher property tests under -race plus
# a fixed-seed kill-and-resume pass through the encore-campaign binary).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== docs check =="
./scripts/docs_check.sh

echo "== go test -race =="
go test -race ./...
# The forwarder's two POSTs in flight, its idle drain and its cursor, many
# times over: interleavings the single run above may not hit.
go test -race -count=20 -run 'InFlight|PerID|Idle|Cursor' ./internal/api/federation

# The paper's reproduction is benchmarks, which go test alone never executes:
# run each once so a b.Fatal in any experiment fails CI.
echo "== paper evaluation (1x) =="
go test -run '^$' -bench . -benchtime 1x .
# Likewise the forwarder's catch-up benchmark (the 1M log is ~200 MB of
# segments) and its drain of a backlog to a real upstream.
go test -run '^$' -bench 'BenchmarkForwarder(CatchUp|Drain)' -benchtime 1x ./internal/api/federation
# And the store-commit benchmark (its 4M-record store peaks near 1 GB) and the
# per-record admit benchmark.
go test -run '^$' -bench BenchmarkStoreAddBatch -benchtime 1x ./internal/results
go test -run '^$' -bench BenchmarkAdmit -benchtime 1x ./internal/collectserver

# bench/ is its own module (replace encore => ../), so ./... above never
# compiles it: a product change that removes exported API would break the
# benchmark unnoticed.
echo "== bench module =="
(cd bench && go vet ./... && go test ./...)

# Short fuzz smoke over the untrusted wire surfaces: the record payload
# decoder and the full streaming frame path. Ten seconds each — enough to
# shake out regressions around the seeded adversarial corpus on every CI run;
# longer exploratory runs stay manual. (go test accepts one -fuzz pattern per
# invocation, hence two runs.)
echo "== fuzz smoke (internal/wire) =="
go test ./internal/wire -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime 10s
go test ./internal/wire -run '^$' -fuzz '^FuzzDecodeBatchStream$' -fuzztime 10s

echo "== chaos suite =="
./scripts/chaos.sh

echo "== campaign smoke =="
./scripts/campaign_smoke.sh

echo "CI OK"
