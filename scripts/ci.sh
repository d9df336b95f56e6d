#!/bin/sh
# CI gate for the Encore reproduction: formatting, vet, build, the docs
# suite (scripts/docs_check.sh: required docs present, package comments on
# every package, README-referenced commands build), the full test suite
# (including the concurrent ingest soak, the WAL kill-and-restart tests, and
# the federation soak — concurrent edge commits against a flapping upstream
# with a WAL-backed forwarder) under the race detector, one iteration of every
# root-package benchmark (the paper's evaluation, E1-E16), of the forwarder's
# catch-up and drain benchmarks and of the store-commit, task-index,
# aggregator and admit benchmarks, -count=20 race runs of the forwarder's
# in-flight and cursor tests, of the store's first-terminal-state race and of
# task-index lookups racing its index's growth, a -count=5 race run of the
# two-coordinator lifecycle test, a guard that every cmd/*/main.go serves through the one
# serve helper, the separate bench/ module's vet and tests, and the
# deterministic chaos suite at fixed seeds (make chaos).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

# Every daemon serves through api.Serve (SIGINT/SIGTERM, the shutdown grace,
# serve errors returned instead of exiting); a binary that builds its own
# http.Server or calls ListenAndServe brings a hand-rolled lifecycle back.
echo "== one serve helper =="
if grep -nE 'http\.Server\b|ListenAndServe' cmd/*/main.go; then
    echo "cmd/*/main.go must serve through api.Serve, not its own http.Server or ListenAndServe"
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
# Success raced against failure for shared IDs through Add and AddBatch: the
# store's first-terminal-state rule under many interleavings. And lookups
# racing registrations that double the task index's ID tables.
go test -race -count=20 -run 'ConcurrentGrow|FirstTerminalWins' ./internal/results
# Two federated coordinators opened, served, gossiping and closed, five
# times over: no gossip loop or other goroutine may outlive Serve.
go test -race -count=5 -run TestCoordinatorLifecycle ./internal/loadgen

# The paper's reproduction is benchmarks, which go test alone never executes:
# run each once so a b.Fatal in any experiment fails CI.
echo "== paper evaluation (1x) =="
go test -run '^$' -bench . -benchtime 1x .
# Likewise the forwarder's catch-up benchmark (the 1M log is ~200 MB of
# segments) and its drain of a backlog to a real upstream.
go test -run '^$' -bench 'BenchmarkForwarder(CatchUp|Drain)' -benchtime 1x ./internal/api/federation
# And the store-commit benchmark (its 4M-record store peaks near 1 GB), the
# task index's Register and Lookup over 2^20 IDs, the aggregator's commit
# (init plus terminal upgrade) and its Groups/Windowed read over 2,000 cells,
# and the per-record admit benchmark.
go test -run '^$' -bench BenchmarkStoreAddBatch -benchtime 1x ./internal/results
go test -run '^$' -bench 'BenchmarkTaskIndex|BenchmarkAggregator' -benchtime 1x -benchmem ./internal/results
go test -run '^$' -bench BenchmarkAdmit -benchtime 1x ./internal/collectserver

# bench/ is its own module (replace encore => ../), so ./... above never
# compiles it: a product change that removes exported API would break the
# benchmark unnoticed.
echo "== bench module =="
(cd bench && go vet ./... && go test ./...)

# Short fuzz smoke over the untrusted decode surfaces — the record payload
# decoder, the full streaming frame path and the coordinator gossip decoder —
# and over the results ID index under degraded hashes, whose shared tags and
# wrapping probe runs only colliding hashes reach. Ten seconds each — enough to shake out regressions around the seeded
# corpus on every CI run; longer exploratory runs stay manual. (go test
# accepts one -fuzz pattern per invocation, hence four runs.)
echo "== fuzz smoke (internal/wire, internal/results) =="
go test ./internal/wire -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime 10s
go test ./internal/wire -run '^$' -fuzz '^FuzzDecodeBatchStream$' -fuzztime 10s
go test ./internal/wire -run '^$' -fuzz '^FuzzDecodeGossip$' -fuzztime 10s
go test ./internal/results -run '^$' -fuzz '^FuzzIDIndex$' -fuzztime 10s

echo "== chaos suite =="
make chaos

echo "CI OK"
