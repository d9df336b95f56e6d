package layers

import (
	"context"
	"fmt"
	"os"

	"encore/bench/internal/load"
)

// ReplayRecords is how many records of a workload's input the traced replay
// drives by default.
const ReplayRecords = 200_000

// MinCoverage is the share of each traced request's duration that must lie
// inside spans of the layers; below it the trace has a blind spot and its
// shares cannot be trusted.
const MinCoverage = 0.9

// TraceNames lists the metrics Trace reports, so callers can tell a missing
// metric from one that is zero on a workload.
var TraceNames = []string{
	"trace.generator_ns_per_rec", "trace.client_ns_per_rec", "trace.coordserver_ns_per_rec",
	"collectserver.handler_self_ns_per_rec", "trace.aggregator_ns_per_rec", "trace.wal_ns_per_rec",
	"trace.forwarder_ns_per_rec", "trace.upstream_ns_per_rec",
	"trace.overhead_share", "trace.coverage_share", "trace.spans",
}

// spanCost times one Begin/End pair as the ledger times a leaf: the median
// of 64 chunks of 256 pairs, half of them roots and half children.
func spanCost() float64 {
	tr := NewTracer(64 * chunk)
	name := tr.Name("calibration")
	return perOp(64, func(int) {
		for i := 0; i < chunk; i += 2 {
			root := tr.Begin(name, -1)
			tr.End(tr.Begin(name, root))
			tr.End(root)
		}
	})
}

// Trace replays the workload's input in this process with spans on and
// returns the per-layer times the spans give, each in nanoseconds per
// replayed record. A layer the workload's topology does not have reads zero.
// With spansOut set, the spans are written there as JSON lines.
//
// trace.overhead_share is by how much the spans lengthen what they time: the
// number of spans times the cost of one (spanCost), over the traced requests'
// time without it. It is derived, not measured as the slowdown against a
// replay with spans off: the two replays differ by more than the spans cost
// (this sandbox drifts by a tenth between them, and where a forwarder runs
// beside the caller the slower replay spills less and does less work: the
// first baseline read -3 to -8 %, the drain workload -28 to -55 %). It is a
// lower bound: the clock reads and the store are in it, what the spans do to
// the traced code's cache is not.
func Trace(ctx context.Context, spec load.Spec, seed uint64, records int, tmp, spansOut string) (map[string]float64, error) {
	// A short discarded replay first: the first seconds of a process run
	// slow in this sandbox, and the traced replay would pay them.
	if _, err := Replay(ctx, spec, seed, records/8+1, tmp, nil); err != nil {
		return nil, err
	}
	// A page-view record is a request of its own: a client call, a handler,
	// three edge observers, and its share of the forwarder's sends upstream.
	tr := NewTracer(records*8 + 4096)
	replayed, err := Replay(ctx, spec, seed, records, tmp, tr)
	if err != nil {
		return nil, err
	}
	if n := tr.Dropped.Load(); n > 0 {
		return nil, fmt.Errorf("layers: tracer dropped %d spans; its capacity is wrong for %s", n, spec.Name)
	}

	by := map[string]LayerTotal{}
	for _, lt := range tr.Totals() {
		by[lt.Name] = lt
	}
	recs := float64(replayed)
	spans := float64(len(tr.Spans()))
	inSpans := spans * spanCost()
	roots := float64(by["gen.request"].Total + by["federation.send"].Total)
	m := map[string]float64{
		"trace.generator_ns_per_rec":            float64(by["gen.request"].Self) / recs,
		"trace.client_ns_per_rec":               float64(by["client.call"].Self) / recs,
		"trace.coordserver_ns_per_rec":          float64(by["coordinator.handler"].Self) / recs,
		"collectserver.handler_self_ns_per_rec": float64(by["edge.handler"].Self) / recs,
		"trace.aggregator_ns_per_rec":           float64(by["edge.aggregator"].Total) / recs,
		"trace.wal_ns_per_rec":                  float64(by["edge.wal"].Total) / recs,
		"trace.forwarder_ns_per_rec":            float64(by["edge.forwarder"].Total) / recs,
		"trace.upstream_ns_per_rec":             float64(by["upstream.handler"].Total) / recs,
		"trace.overhead_share":                  inSpans / (roots - inSpans),
		"trace.coverage_share":                  float64(by["client.call"].Total) / float64(by["gen.request"].Total),
		"trace.spans":                           spans,
	}
	if spansOut != "" {
		f, err := os.Create(spansOut)
		if err != nil {
			return nil, err
		}
		if err := tr.WriteJSONL(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("layers: writing spans: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	if c := m["trace.coverage_share"]; c < MinCoverage {
		return nil, fmt.Errorf("layers: spans cover %.1f%% of the traced requests of %s, below %.0f%%", 100*c, spec.Name, 100*MinCoverage)
	}
	return m, nil
}
