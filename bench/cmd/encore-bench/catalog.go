package main

import (
	"encoding/json"

	"encore/bench/internal/load"
)

// RunSeconds is how long one driver run measures for; BENCHMARK.json
// carries it and `run`, `trace` and `aa` default to it.
const RunSeconds = 16

// metric is one catalogued metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics have none.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Moves names, for a per-layer metric, the end-to-end metric@workload it
	// should shift (written before measuring) or the condition it is held to.
	// The README's table is these strings: a test compares the two.
	Moves string
}

// endToEnd is the gated set. Every workload reports every one of them. The
// timing bounds are the widest the contract allows because the sandbox is
// noisy: a neighbour's burst slows memory-bound code by a tenth or more for
// seconds to minutes at a time (README, "Steadiness" and "Sandbox caveats").
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_record", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "live_bytes_per_id", Unit: "B", Better: "lower", Bound: 0.1},
}

// perLayer is every per-layer metric, grouped by the layer (module) it
// belongs to. Three sources: the leaf ledger, the traced replay (trace.* and
// collectserver.handler_self_ns_per_rec), and counts only a socket run can
// give (marked e2e in Moves).
var perLayer = []metric{
	{Name: "client.beacon_ns", Unit: "ns", Better: "lower", Moves: "generator headroom only"},
	{Name: "client.encode_json16_ns_per_rec", Unit: "ns", Better: "lower", Moves: "generator headroom only"},
	{Name: "client.encode_bin256_ns_per_rec", Unit: "ns", Better: "lower", Moves: "generator headroom only"},
	{Name: "client.retries", Unit: "count", Better: "lower", Moves: "e2e; validity: a run with any fails"},
	{Name: "client.op_p50_ms", Unit: "ms", Better: "lower", Moves: "e2e; median latency of one operation (a visit from its due time, a batch POST), median over slices of 250"},
	{Name: "client.op_p90_ms", Unit: "ms", Better: "lower", Moves: "e2e; the same, 90th percentile"},
	{Name: "client.op_p95_ms", Unit: "ms", Better: "lower", Moves: "e2e; the same, 95th"},
	{Name: "client.op_p99_ms", Unit: "ms", Better: "lower", Moves: "e2e; the same, 99th over slices of 1000: fsync and neighbour stalls"},
	{Name: "gen.lag_p99_ms", Unit: "ms", Better: "lower", Moves: "e2e; validity of pageview: how late visits started, median over slices of 1000; a run over 10 ms fails"},
	{Name: "gen.cpu_share", Unit: "ratio", Better: "lower", Moves: "e2e; generator's share of the cores"},
	{Name: "gen.cores_busy_share", Unit: "ratio", Better: "higher", Moves: "e2e; validity of the closed loops: a run under 0.7 while callers had work to offer fails"},

	{Name: "api.route_ns", Unit: "ns", Better: "lower", Moves: "client.op_p50_ms, cpu_us_per_record@pageview"},
	{Name: "api.write_json_ns", Unit: "ns", Better: "lower", Moves: "client.op_p50_ms, cpu_us_per_record@pageview"},

	{Name: "coordserver.tasks_handler_ns", Unit: "ns", Better: "lower", Moves: "client.op_p50_ms, client.op_p90_ms@pageview"},
	{Name: "coordserver.taskjs_handler_ns", Unit: "ns", Better: "lower", Moves: "none gated (v1 rendering of the same assignment)"},
	{Name: "coordserver.assign_register_ns", Unit: "ns", Better: "lower", Moves: "client.op_p50_ms@pageview"},
	{Name: "scheduler.assign_ns", Unit: "ns", Better: "lower", Moves: "client.op_p50_ms@pageview"},
	{Name: "scheduler.assign_allocs", Unit: "count", Better: "lower", Moves: "cpu_us_per_record@pageview"},
	{Name: "scheduler.pick_ns", Unit: "ns", Better: "lower", Moves: "client.op_p50_ms@pageview"},
	{Name: "scheduler.merge_coverage_us", Unit: "us", Better: "lower", Moves: "none at the default gossip interval"},
	{Name: "scheduler.coverage_spread", Unit: "count", Better: "lower", Moves: "invariant: at most 1"},
	{Name: "coordfed.round_us", Unit: "us", Better: "lower", Moves: "none at the default 1 s interval"},
	{Name: "wire.gossip_roundtrip_ns", Unit: "ns", Better: "lower", Moves: "none at the default 1 s interval"},

	{Name: "collectserver.beacon_handler_ns", Unit: "ns", Better: "lower", Moves: "client.op_p50_ms, cpu_us_per_record@pageview"},
	{Name: "collectserver.accept_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_record@pageview; records_per_s@batch_json16"},
	{Name: "collectserver.accept_allocs", Unit: "count", Better: "lower", Moves: "cpu_us_per_record@pageview"},
	{Name: "collectserver.guard_check_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_record@pageview, batch_json16"},
	{Name: "geo.lookup_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_record@pageview, batch_json16"},
	{Name: "results.taskindex_register_ns", Unit: "ns", Better: "lower", Moves: "client.op_p50_ms@pageview; setup_s"},
	{Name: "results.taskindex_lookup_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_record@pageview, batch_json16"},
	{Name: "collectserver.json16_handler_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_us_per_record@batch_json16"},
	{Name: "collectserver.json16_allocs_per_rec", Unit: "count", Better: "lower", Moves: "cpu_us_per_record@batch_json16"},
	{Name: "collectserver.bin256_handler_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_us_per_record@batch_bin256_wal"},
	{Name: "collectserver.bin256_allocs_per_rec", Unit: "count", Better: "lower", Moves: "cpu_us_per_record@batch_bin256_wal"},
	{Name: "collectserver.handler_self_ns_per_rec", Unit: "ns", Better: "lower", Moves: "trace; the workload traced"},

	{Name: "wire.append_submission_ns", Unit: "ns", Better: "lower", Moves: "generator headroom@batch_bin256_wal, fed_drain"},
	{Name: "wire.decode_submission_ns", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_us_per_record@batch_bin256_wal"},
	{Name: "wire.frame_next_ns", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_us_per_record@batch_bin256_wal"},
	{Name: "wire.decode_allocs_per_rec", Unit: "count", Better: "lower", Moves: "cpu_us_per_record@batch_bin256_wal"},
	{Name: "wire.bytes_per_submission", Unit: "B", Better: "lower", Moves: "none gated (loopback)"},
	{Name: "wire.append_record_ns", Unit: "ns", Better: "lower", Moves: "records_per_s@batch_bin256_wal (WAL append), sut.export_records_per_s"},
	{Name: "wire.decode_record_ns", Unit: "ns", Better: "lower", Moves: "records_per_s@fed_drain (upstream), sut.export_records_per_s (client side)"},

	{Name: "results.store_insert_ns", Unit: "ns", Better: "lower", Moves: "records_per_s@batch_bin256_wal most, batch_json16 less"},
	{Name: "results.store_upgrade_ns", Unit: "ns", Better: "lower", Moves: "records_per_s@batch_bin256_wal most, batch_json16 less"},
	{Name: "results.store_addbatch256_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s@batch_bin256_wal"},
	{Name: "results.store_shard_imbalance", Unit: "ratio", Better: "lower", Moves: "none on two cores"},
	{Name: "results.agg_commit_ns", Unit: "ns", Better: "lower", Moves: "records_per_s@batch_bin256_wal, batch_json16"},
	{Name: "results.agg_commit_uniform_ns", Unit: "ns", Better: "lower", Moves: "the gap to agg_commit_ns is the hot-cell cost"},
	{Name: "results.agg_groups", Unit: "count", Better: "lower", Moves: "e2e; cells the detector reported"},
	{Name: "results.wal_append_ns", Unit: "ns", Better: "lower", Moves: "records_per_s, cpu_us_per_record@batch_bin256_wal, fed_drain"},
	{Name: "results.wal_bytes_per_rec", Unit: "B", Better: "lower", Moves: "sut.recovery_s, results.wal_sync_ms"},
	{Name: "results.wal_sync_ms", Unit: "ms", Better: "lower", Moves: "sandbox disk; client.op_p99_ms@batch_bin256_wal"},
	{Name: "results.wal_fsyncs", Unit: "count", Better: "lower", Moves: "e2e; fsyncs inside the timed window"},
	{Name: "results.wal_append_always_us", Unit: "us", Better: "lower", Moves: "none (policy not benchmarked end to end); sandbox disk"},
	{Name: "results.wal_recover_ns_per_rec", Unit: "ns", Better: "lower", Moves: "sut.recovery_s@batch_bin256_wal"},
	{Name: "results.wal_recover_allocs_per_rec", Unit: "count", Better: "lower", Moves: "sut.recovery_s@batch_bin256_wal"},
	{Name: "results.backfill_ns_per_rec", Unit: "ns", Better: "lower", Moves: "sut.recovery_s@batch_bin256_wal"},
	{Name: "results.wal_tail_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s@fed_drain"},
	{Name: "results.export_wire_ns_per_rec", Unit: "ns", Better: "lower", Moves: "sut.export_records_per_s"},
	{Name: "results.export_jsonl_ns_per_rec", Unit: "ns", Better: "lower", Moves: "none gated (JSONL export is not driven end to end)"},

	{Name: "federation.enqueue_ns", Unit: "ns", Better: "lower", Moves: "records_per_s@fed_drain (edge ingest share), cpu_us_per_record@pageview"},
	{Name: "federation.flush_ns_per_rec", Unit: "ns", Better: "lower", Moves: "cpu_us_per_record@pageview"},
	{Name: "federation.flush_bin_ns_per_rec", Unit: "ns", Better: "lower", Moves: "records_per_s@fed_drain"},
	{Name: "federation.batches", Unit: "count", Better: "lower", Moves: "e2e; explains records_per_s@fed_drain"},
	{Name: "federation.spilled", Unit: "count", Better: "lower", Moves: "e2e; buffer overflow handed to the WAL tail"},
	{Name: "federation.backlog_peak", Unit: "count", Better: "lower", Moves: "e2e; largest unacknowledged backlog seen"},
	{Name: "federation.dropped", Unit: "count", Better: "lower", Moves: "e2e; must be 0"},
	{Name: "federation.dead_letters", Unit: "count", Better: "lower", Moves: "e2e; must be 0"},
	{Name: "federation.upstream_lag_p50_ms", Unit: "ms", Better: "lower", Moves: "e2e; pageview only: edge ack to upstream-visible"},

	{Name: "inference.detect_incremental_us", Unit: "us", Better: "lower", Moves: "none gated (O(groups))"},
	{Name: "inference.detect_idle_us", Unit: "us", Better: "lower", Moves: "none gated"},
	{Name: "inference.wrong_verdicts", Unit: "count", Better: "lower", Moves: "e2e; must be 0"},

	{Name: "sut.allocs_per_rec", Unit: "count", Better: "lower", Moves: "e2e; cpu_us_per_record on the workload read"},
	{Name: "sut.alloc_bytes_per_rec", Unit: "B", Better: "lower", Moves: "e2e; cpu_us_per_record, sut.rss_peak_mb"},
	{Name: "sut.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "e2e; client.op_p99_ms"},
	{Name: "sut.gc_cpu_share", Unit: "ratio", Better: "lower", Moves: "e2e; the collector's share of the child's CPU over the timed window; cpu_us_per_record"},
	{Name: "sut.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "e2e; follows store size"},
	{Name: "sut.rss_peak_mb", Unit: "MB", Better: "lower", Moves: "e2e; follows store size (VmHWM)"},
	{Name: "sut.sys_cpu_share", Unit: "ratio", Better: "lower", Moves: "e2e; kernel share of cpu_us_per_record"},
	{Name: "sut.recovery_s", Unit: "s", Better: "lower", Moves: "e2e; batch_bin256_wal only: SIGTERM, respawn, full count"},
	{Name: "sut.export_records_per_s", Unit: "1/s", Better: "higher", Moves: "e2e; Measurements() export of the final tier, fastest pass"},

	{Name: "trace.generator_ns_per_rec", Unit: "ns", Better: "lower", Moves: "trace; outside every layer"},
	{Name: "trace.client_ns_per_rec", Unit: "ns", Better: "lower", Moves: "trace; SDK self time"},
	{Name: "trace.coordserver_ns_per_rec", Unit: "ns", Better: "lower", Moves: "trace; client.op_p50_ms@pageview"},
	{Name: "trace.aggregator_ns_per_rec", Unit: "ns", Better: "lower", Moves: "trace; records_per_s on every workload"},
	{Name: "trace.wal_ns_per_rec", Unit: "ns", Better: "lower", Moves: "trace; records_per_s@batch_bin256_wal, fed_drain"},
	{Name: "trace.forwarder_ns_per_rec", Unit: "ns", Better: "lower", Moves: "trace; records_per_s@fed_drain"},
	{Name: "trace.upstream_ns_per_rec", Unit: "ns", Better: "lower", Moves: "trace; records_per_s@fed_drain"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "none; spans x the cost of one / traced time without them, so traced numbers are never quoted as end-to-end"},
	{Name: "trace.coverage_share", Unit: "ratio", Better: "higher", Moves: "validity: at least 0.9"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "none"},
}

// benchmarkJSON renders the repository's BENCHMARK.json from the catalog, so
// the contract file and the program cannot drift apart.
func benchmarkJSON() []byte {
	type nameWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []nameWhy `json:"workloads"`
		EndToEnd   []gated   `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, s := range load.Specs {
		doc.Workloads = append(doc.Workloads, nameWhy{s.Name, s.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, gated{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(out, '\n')
}
