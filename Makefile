# Development and CI entry points for the Encore reproduction.
#
#   make ci          - everything CI runs (scripts/ci.sh): format check, vet,
#                      build, docs check, race tests, the paper evaluation and
#                      the retained scale families once each (-benchtime 1x),
#                      bench-module, fuzz, chaos
#   make test        - fast test run (no race detector)
#   make race        - full test suite under the race detector
#   make bench       - the end-to-end benchmark (bench/README.md): builds
#                      encore-bench and runs its four socket-level workloads
#                      once each; per-layer and steadiness modes are
#                      `bash bench/run.sh trace` and `... aa`
#   make bench-module - vet and test the separate bench/ module against this
#                      checkout's product API (part of make ci)
#   make fuzz        - the CI fuzz smoke: 10s on each fuzz target (the three
#                      internal/wire decoders and the results ID index against
#                      a map model)
#   make docs-check  - verify the docs suite: README/architecture/example
#                      docs exist, every package carries a package comment,
#                      and the commands the README names actually build
#   make chaos       - the deterministic fault-injection suite at fixed seeds
#                      (CHAOS_SEEDS: 1 7 424242) under the race detector (part
#                      of make ci); failures print the seed that replays them
#   make chaos-soak  - the same suite plus one randomized seed, logged before
#                      the run so any failure is replayable
#   make bench-paper - the paper's full evaluation benchmark suite (E1-E16 in
#                      bench_test.go, plus the families in scale_bench_test.go)

GO ?= go

.PHONY: ci fmt vet build test race bench bench-module bench-paper fuzz docs-check chaos chaos-soak

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
	bash bench/run.sh run

bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeBatchStream$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeGossip$$' -fuzztime 10s
	$(GO) test ./internal/results -run '^$$' -fuzz '^FuzzIDIndex$$' -fuzztime 10s

bench-paper:
	$(GO) test -bench=. -benchmem .

docs-check:
	./scripts/docs_check.sh

# A chaos failure replays with the seed its message prints:
#   go test ./internal/loadgen -race -run TestChaos -chaos-seed <seed>
CHAOS_SEEDS = 1 7 424242

chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos suite (seed $$seed, -race) =="; \
		$(GO) test ./internal/loadgen -race -run TestChaos -chaos-seed $$seed || exit 1; \
	done

chaos-soak: chaos
	@seed=$$(od -An -N4 -tu4 /dev/urandom | tr -d ' '); \
	echo "== chaos soak (randomized seed $$seed, -race) =="; \
	$(GO) test ./internal/loadgen -race -run TestChaos -chaos-seed $$seed
