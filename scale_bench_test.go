package encore

// The two scale-benchmark families the bench/ module's layer ledger has no
// row for yet. Everything else about scale and per-layer cost is measured by
// bench/ (make bench, bench/README.md); nothing here is recorded anywhere.
// Each family is deleted when bench/internal/layers gains its row:
//
//   - BenchmarkDetectionBatchRescan / BenchmarkDetectionIncremental: a
//     rescan-vs-incremental detection row at 10k/100k/1M stored measurements
//     (the ledger's inference.detect_incremental_us has one store size and no
//     rescan side).
//   - BenchmarkGossipAssignmentThroughput: an assignment-throughput row at
//     K=1/3/5 gossiping coordinators (the ledger's scheduler.assign_ns is
//     unfederated and coordfed.round_us prices the round, not what it costs
//     the Assign path).

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"encore/internal/coordfed"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
)

// ---------------------------------------------------------------------------
// Detection cost vs store size. DetectStore rescans (and defensively copies)
// the whole store every pass, so its latency grows linearly with stored
// measurements; DetectIncremental reads the group counters the collector
// maintained at ingest and recomputes only dirtied patterns, so its latency
// tracks the number of groups — which is fixed here — no matter how many
// measurements built them.
// ---------------------------------------------------------------------------

// detectionBenchSizes are the store sizes the batch-vs-incremental crossover
// is measured at.
var detectionBenchSizes = []int{10_000, 100_000, 1_000_000}

type detectionFixture struct {
	store *results.Store
	agg   *results.Aggregator
}

var (
	detectionFixtureMu sync.Mutex
	detectionFixtures  = map[int]*detectionFixture{}
)

// detectionStore builds, once per size, a store of n measurements spread over
// a fixed 40-pattern × 25-region grid (1000 groups) with the incremental
// aggregation tier attached, so every size measures the same group cardinality
// and only the measurement count varies.
func detectionStore(b *testing.B, n int) *detectionFixture {
	b.Helper()
	detectionFixtureMu.Lock()
	defer detectionFixtureMu.Unlock()
	if f, ok := detectionFixtures[n]; ok {
		return f
	}
	store := results.NewStore()
	agg := results.NewAggregator(results.AggregatorConfig{Window: 24 * time.Hour})
	store.AddObserver(agg)
	base := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	const batchSize = 4096
	batch := make([]results.Measurement, 0, batchSize)
	for i := 0; i < n; i++ {
		state := core.StateSuccess
		switch i % 10 {
		case 0:
			state = core.StateInit
		case 1, 2:
			state = core.StateFailure
		}
		batch = append(batch, results.Measurement{
			MeasurementID: "det-" + strconv.Itoa(i),
			PatternKey:    "domain:site" + strconv.Itoa(i%40) + ".com",
			State:         state,
			Region:        geo.CountryCode("R" + strconv.Itoa((i/40)%25)),
			ClientIP:      "11.0.0." + strconv.Itoa(i%200),
			Browser:       core.BrowserChrome,
			Received:      base.Add(time.Duration(i%100000) * time.Second),
		})
		if len(batch) == batchSize || i == n-1 {
			if _, err := store.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	f := &detectionFixture{store: store, agg: agg}
	detectionFixtures[n] = f
	return f
}

// BenchmarkDetectionBatchRescan measures the O(store) path: every pass copies
// the whole store and re-aggregates from scratch.
func BenchmarkDetectionBatchRescan(b *testing.B) {
	for _, n := range detectionBenchSizes {
		b.Run(fmt.Sprintf("store=%d", n), func(b *testing.B) {
			f := detectionStore(b, n)
			detector := inference.New(inference.DefaultConfig())
			var verdicts []inference.Verdict
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verdicts = detector.DetectStore(f.store)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(verdicts)), "groups")
			b.ReportMetric(float64(f.store.Len()), "stored")
		})
	}
}

// BenchmarkDetectionIncremental measures the O(groups) path under its
// steady-state workload: each iteration commits one in-place upgrade
// (dirtying exactly one group) and recomputes verdicts incrementally. The
// store size stays constant across iterations — the dirtying commit replaces
// the same measurement — so the reported latency is the per-pass detection
// cost at that store size.
func BenchmarkDetectionIncremental(b *testing.B) {
	for _, n := range detectionBenchSizes {
		b.Run(fmt.Sprintf("store=%d", n), func(b *testing.B) {
			f := detectionStore(b, n)
			detector := inference.New(inference.DefaultConfig())
			detector.DetectIncremental(f.agg) // prime the verdict cache
			dirty := results.Measurement{
				MeasurementID: "det-dirty",
				PatternKey:    "domain:site0.com",
				Region:        "R0",
				Browser:       core.BrowserChrome,
			}
			var verdicts []inference.Verdict
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dirty.State = core.StateSuccess
				if i%2 == 1 {
					dirty.State = core.StateFailure
				}
				if err := f.store.Add(dirty); err != nil {
					b.Fatal(err)
				}
				verdicts = detector.DetectIncremental(f.agg)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(verdicts)), "groups")
			b.ReportMetric(float64(f.store.Len()), "stored")
		})
	}
}

// ---------------------------------------------------------------------------
// Assignment throughput under a gossiping federation. The Assign path never
// takes a federation lock, so throughput should be flat in K.
// ---------------------------------------------------------------------------

// benchGossipNode is one coordinator in a benchmark federation.
type benchGossipNode struct {
	sched *scheduler.Scheduler
	fed   *coordfed.Federation
	srv   *httptest.Server
}

func benchGossipTaskSet() *pipeline.TaskSet {
	ts := pipeline.NewTaskSet()
	ts.Add(pipeline.Candidate{PatternKey: "domain:aaa-script-only.org", Type: core.TaskScript,
		TargetURL: "http://aaa-script-only.org/app.js", Strict: true})
	for i := 1; i < 6; i++ {
		d := fmt.Sprintf("balance%02d.example.org", i)
		ts.Add(pipeline.Candidate{PatternKey: "domain:" + d, Type: core.TaskImage,
			TargetURL: "http://" + d + "/favicon.ico", Strict: true})
	}
	return ts
}

// benchGossipCluster builds k fully-meshed coordinators and starts their real
// jittered probe loops at a 2ms interval.
func benchGossipCluster(b *testing.B, k int) []*benchGossipNode {
	b.Helper()
	nodes := make([]*benchGossipNode, k)
	for i := range nodes {
		cfg := scheduler.DefaultConfig()
		cfg.QuorumWindow = 1000 * time.Hour
		cfg.Seed = uint64(i + 1)
		nodes[i] = &benchGossipNode{sched: scheduler.New(benchGossipTaskSet(), cfg)}
		n := nodes[i]
		n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n.fed.Handler()(w, r)
		}))
	}
	for i, n := range nodes {
		var peers []string
		for j, p := range nodes {
			if j != i {
				peers = append(peers, p.srv.URL)
			}
		}
		fed, err := coordfed.New(coordfed.Config{
			Origin:    fmt.Sprintf("bench-c%d", i),
			Scheduler: n.sched,
			Peers:     peers,
			Interval:  2 * time.Millisecond,
			Seed:      uint64(100 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		n.fed = fed
		fed.Start()
	}
	b.Cleanup(func() {
		for _, n := range nodes {
			n.fed.Close()
			n.srv.Close()
		}
	})
	return nodes
}

var benchGossipClient = scheduler.ClientInfo{
	Region: "US", Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5,
}

// BenchmarkGossipAssignmentThroughput drives parallel assignments on one
// coordinator while a K-node federation gossips underneath at a short
// interval. K=1 is the unfederated baseline; the replicated control plane
// earns its keep only if K=3 and K=5 hold the same assignment rate.
func BenchmarkGossipAssignmentThroughput(b *testing.B) {
	at := time.Unix(6_000_000, 0)
	for _, k := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			nodes := benchGossipCluster(b, k)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					nodes[0].sched.Assign(benchGossipClient, at)
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "assignments/s")
		})
	}
}
