package layers

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"encore/bench/internal/load"
)

// Self time is a span's duration minus what its direct children cover;
// grandchildren are their parent's business.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Request: 0, Start: 0, End: 100},   // request
		{ID: 1, Parent: 0, Request: 0, Start: 10, End: 90},    // handler
		{ID: 2, Parent: 1, Request: 0, Start: 20, End: 30},    // observer
		{ID: 3, Parent: 1, Request: 0, Start: 30, End: 55},    // observer
		{ID: 4, Parent: -1, Request: 4, Start: 100, End: 140}, // next request, no children
	}
	want := []int64{20, 45, 10, 25, 40}
	got := SelfTimes(spans)
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 140 {
		t.Errorf("self times sum to %d, want the two requests' 140: every nanosecond belongs to exactly one span", sum)
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	tr := NewTracer(8)
	req, call := tr.Name("gen.request"), tr.Name("client.call")
	a := tr.Begin(req, -1)
	b := tr.Begin(call, a)
	tr.End(b)
	tr.End(a)
	c := tr.Begin(req, -1)
	tr.End(c)
	spans := tr.Spans()
	if len(spans) != 3 || spans[1].Parent != a || spans[1].Request != a || spans[2].Request != c {
		t.Fatalf("spans %+v: parents or requests are wrong", spans)
	}
	for i, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	var first struct {
		ID, Parent, Request int
		Name                string
		StartNs             int64 `json:"start_ns"`
		EndNs               int64 `json:"end_ns"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &first); err != nil {
		t.Fatalf("span line is not JSON: %v: %s", err, lines[1])
	}
	if first.Name != "client.call" || first.Parent != int(a) || first.EndNs < first.StartNs {
		t.Errorf("span line decoded to %+v", first)
	}

	// Past its capacity the tracer counts what it drops and stays usable.
	for i := 0; i < 10; i++ {
		tr.End(tr.Begin(req, -1))
	}
	if tr.Dropped.Load() != 5 || len(tr.Spans()) != 8 {
		t.Errorf("dropped %d spans and kept %d, want 5 and 8", tr.Dropped.Load(), len(tr.Spans()))
	}

	// A nil tracer records nothing and never panics.
	var off *Tracer
	off.End(off.Begin(off.Name("x"), -1))
}

// The traced replay of every workload, at a thousandth of its size: the
// spans must cover the requests, name the layers the topology has, and leave
// the layers it lacks at zero.
func TestTraceSmoke(t *testing.T) {
	for _, spec := range load.Specs {
		t.Run(spec.Name, func(t *testing.T) {
			m, err := Trace(context.Background(), spec, 5, 2048, t.TempDir(), "")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range TraceNames {
				if _, ok := m[name]; !ok {
					t.Errorf("metric %s is missing", name)
				}
			}
			if m["trace.coverage_share"] < MinCoverage {
				t.Errorf("spans cover %.2f of the requests", m["trace.coverage_share"])
			}
			positive := map[string]bool{
				"trace.client_ns_per_rec": true, "collectserver.handler_self_ns_per_rec": true, "trace.aggregator_ns_per_rec": true,
				"trace.wal_ns_per_rec":         spec.WAL,
				"trace.forwarder_ns_per_rec":   spec.Topology.Forward != "",
				"trace.upstream_ns_per_rec":    spec.Topology.Forward != "",
				"trace.coordserver_ns_per_rec": spec.Topology.Coordinator,
			}
			for name, want := range positive {
				if got := m[name] > 0; got != want {
					t.Errorf("%s = %v; a layer this topology has: %t", name, m[name], want)
				}
			}
		})
	}
}

// Every leaf of the ledger must run and report a positive figure, and the
// scheduler's balance invariant must hold on the ledger's own picks.
func TestLedger(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("the ledger times tens of thousands of operations per leaf; too slow under the race detector")
	}
	m, err := Ledger(context.Background(), 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(m) < 50 {
		t.Errorf("the ledger reported %d metrics, want at least 50", len(m))
	}
	for name, v := range m {
		if v <= 0 && name != "collectserver.accept_allocs" && name != "scheduler.coverage_spread" {
			t.Errorf("%s = %v, want a positive figure", name, v)
		}
	}
	if m["scheduler.coverage_spread"] > 1 {
		t.Errorf("per-region coverage spread is %v; the scheduler keeps it at most 1", m["scheduler.coverage_spread"])
	}
}
