# Development and CI entry points for the Encore reproduction.
#
#   make ci          - everything CI runs: format check, vet, build, race tests
#   make test        - fast test run (no race detector)
#   make race        - full test suite under the race detector
#   make bench       - aggregation-tier (E18), ingest (E17), WAL durability
#                      (E19), and scheduler assignment (E20) benchmarks,
#                      recorded as BENCH_aggregate.json via scripts/bench.sh
#   make bench-sched - only the E20 scheduler benchmarks, merged into
#                      BENCH_aggregate.json without touching E17-E19 entries
#   make bench-api   - only the E21 API-transport benchmarks (v1 beacon vs
#                      v2 batch over loopback HTTP, federation forwarder),
#                      merged into BENCH_aggregate.json the same way
#   make bench-fed   - only the E22 lossless-federation benchmarks (WAL-tail
#                      forwarder throughput vs the in-memory baseline, plus
#                      the recovery-resume replay rate), merged the same way
#   make bench-wire  - the E23 binary-wire benchmarks (binary batch POSTs and
#                      binary federation forwarding) plus the E22 federation
#                      set, merged into BENCH_aggregate.json while keeping
#                      the pinned E21 JSON numbers as the comparison baseline
#   make bench-gossip- the E24 control-plane benchmarks (gossip round cost,
#                      delta-carrying and steady-state, plus assignment
#                      throughput at K=1/3/5 coordinators), merged the same
#                      way
#   make bench-module - vet and test the separate bench/ module against this
#                      checkout's product API (part of make ci)
#   make fuzz        - the CI fuzz smoke: 10s on each internal/wire target
#   make docs-check  - verify the docs suite: README/architecture/example
#                      docs exist, every package carries a package comment,
#                      and the commands the README names actually build
#   make chaos       - the deterministic fault-injection suite at fixed seeds
#                      under the race detector (part of make ci); failures
#                      print the seed that replays them
#   make chaos-soak  - the same suite plus one randomized seed, logged before
#                      the run so any failure is replayable
#   make campaign-smoke - the campaign-tier gate (part of make ci): the grid
#                      and dispatcher property tests under the race detector,
#                      then a fixed-seed 2x2 grid through the encore-campaign
#                      binary with a mid-campaign kill and a journal resume
#   make bench-paper - the paper's full evaluation benchmark suite
#   make loadgen     - concurrent ingest throughput benchmarks (-cpu=4)

GO ?= go

.PHONY: ci fmt vet build test race bench bench-sched bench-api bench-fed bench-wire bench-gossip bench-module bench-paper fuzz loadgen docs-check chaos chaos-soak campaign-smoke

ci:
	./scripts/ci.sh

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	./scripts/bench.sh

bench-sched:
	./scripts/bench.sh -only sched

bench-api:
	./scripts/bench.sh -only api

bench-fed:
	./scripts/bench.sh -only fed

bench-wire:
	./scripts/bench.sh -only wire

bench-gossip:
	./scripts/bench.sh -only gossip

bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeBatchStream$$' -fuzztime 10s

bench-paper:
	$(GO) test -bench=. -benchmem .

loadgen:
	$(GO) test -run xxx -bench 'ParallelIngest|ParallelCollect' -cpu 4 .

docs-check:
	./scripts/docs_check.sh

chaos:
	./scripts/chaos.sh

chaos-soak:
	./scripts/chaos.sh -soak

campaign-smoke:
	./scripts/campaign_smoke.sh
