package encore

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/api/federation"
	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/collectserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/results"
)

// edgeSplitter routes each submission to one of several edge collectors by
// measurement-ID hash, modelling a population whose beacon traffic lands on
// different collection servers (DNS round robin, regional anycast). Hashing
// by ID keeps a measurement's init and terminal submissions on one edge,
// like a browser re-resolving within one page view would.
type edgeSplitter struct {
	edges []clientsim.SubmissionServer
}

func (s *edgeSplitter) Accept(sub core.Submission) error {
	return s.edges[int(results.ShardHash(sub.MeasurementID))%len(s.edges)].Accept(sub)
}

// buildUpstream assembles an aggregation-tier instance: a collection server
// that accepts the federation lane, with an incremental aggregator attached.
func buildUpstream(t *testing.T, g *geo.Registry) (*results.Store, *results.Aggregator, *httptest.Server) {
	t.Helper()
	store := results.NewStore()
	agg := results.NewAggregator(results.AggregatorConfig{})
	store.AddObserver(agg)
	server := collectserver.New(store, results.NewTaskIndex(), g)
	server.Guard = nil
	server.AllowAttributed = true
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	return store, agg, srv
}

// federationCampaign is the campaign both topologies run; identical seeds
// make the two runs submit identical measurement streams.
func federationCampaign(visits int) clientsim.CampaignConfig {
	return clientsim.CampaignConfig{
		Visits:   visits,
		Start:    time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Duration: 14 * 24 * time.Hour,
	}
}

// edgeWAL attaches a write-ahead log to an edge's store — the log its
// forwarder ships from — and closes it when the test ends.
func edgeWAL(t *testing.T, store *results.Store) *results.WAL {
	t.Helper()
	wal, err := results.OpenWAL(results.WALConfig{Dir: t.TempDir(), Policy: results.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wal.Close() })
	store.AddObserver(wal)
	return wal
}

// TestFederatedCollectorsMatchSingleCollector is the federation acceptance
// test: the same campaign ingested by (a) one collector and (b) two edge
// collectors forwarding over the v2 API into one aggregation tier must
// produce identical DetectIncremental verdicts.
func TestFederatedCollectorsMatchSingleCollector(t *testing.T) {
	const seed, visits = 977, 400

	// Baseline: a single collector ingests everything. The abuse guard is
	// disabled on every topology so rate state (per-collector in the
	// federated run) cannot skew the comparison.
	baseline := clientsim.BuildStack(clientsim.StackConfig{Seed: seed, Censor: censor.PaperPolicies()})
	baseline.Collector.Guard = nil
	baseline.Population.RunCampaign(federationCampaign(visits))
	baseVerdicts := inference.New(inference.DefaultConfig()).DetectIncremental(baseline.Aggregator)
	if baseline.Store.Len() == 0 || len(baseVerdicts) == 0 {
		t.Fatalf("baseline campaign produced nothing: %d stored, %d verdicts", baseline.Store.Len(), len(baseVerdicts))
	}

	// Federated: an identically seeded deployment, with the population's
	// submissions split across two edge collectors that forward upstream.
	fed := clientsim.BuildStack(clientsim.StackConfig{Seed: seed, Censor: censor.PaperPolicies()})
	fed.Collector.Guard = nil
	upStore, upAgg, upSrv := buildUpstream(t, fed.Geo)

	edge1 := fed.Collector // shares the stack's task index
	edge2 := collectserver.New(results.NewStore(), fed.TaskIndex, fed.Geo)
	edge2.Guard = nil

	var forwarders []*federation.Forwarder
	for _, store := range []*results.Store{edge1.Store, edge2.Store} {
		f, err := federation.NewForwarder(federation.ForwarderConfig{
			Upstream:      upSrv.URL,
			MaxBatch:      64,
			FlushInterval: 10 * time.Millisecond,
			WAL:           edgeWAL(t, store),
		})
		if err != nil {
			t.Fatal(err)
		}
		store.AddObserver(f)
		forwarders = append(forwarders, f)
	}
	fed.Population.Collector = &edgeSplitter{edges: []clientsim.SubmissionServer{edge1, edge2}}

	fed.Population.RunCampaign(federationCampaign(visits))
	for _, f := range forwarders {
		if err := f.Close(); err != nil {
			t.Fatalf("forwarder close: %v", err)
		}
		st := f.Stats()
		if st.Dropped != 0 || st.Rejected != 0 || st.Pending != 0 {
			t.Fatalf("forwarder lost records: %+v", st)
		}
	}

	// Both edges saw traffic; their union reached the aggregation tier.
	if edge1.Store.Len() == 0 || edge2.Store.Len() == 0 {
		t.Fatalf("splitter did not spread traffic: edge1=%d edge2=%d", edge1.Store.Len(), edge2.Store.Len())
	}
	if got, want := upStore.Len(), edge1.Store.Len()+edge2.Store.Len(); got != want {
		t.Fatalf("upstream has %d records, edges committed %d", got, want)
	}
	if got, want := upStore.Len(), baseline.Store.Len(); got != want {
		t.Fatalf("federated tier has %d records, single collector stored %d", got, want)
	}

	// The acceptance criterion: verdict-for-verdict equality.
	fedVerdicts := inference.New(inference.DefaultConfig()).DetectIncremental(upAgg)
	if len(fedVerdicts) != len(baseVerdicts) {
		t.Fatalf("federated detection produced %d verdicts, baseline %d", len(fedVerdicts), len(baseVerdicts))
	}
	for i := range baseVerdicts {
		if fedVerdicts[i] != baseVerdicts[i] {
			t.Fatalf("verdict %d diverged:\n  single: %+v\nfederated: %+v", i, baseVerdicts[i], fedVerdicts[i])
		}
	}
}

// TestFederationSurvivesCollectorLoss kills one of two edge collectors
// mid-deployment: its forwarder drains what that edge had committed, the
// remaining edge absorbs all subsequent traffic, and the aggregation tier
// ends holding exactly the union of what the two edges committed — the
// failure mode a distributed-collectors deployment must shrug off.
func TestFederationSurvivesCollectorLoss(t *testing.T) {
	const seed, phaseVisits = 978, 200
	stack := clientsim.BuildStack(clientsim.StackConfig{Seed: seed, Censor: censor.PaperPolicies()})
	stack.Collector.Guard = nil
	upStore, upAgg, upSrv := buildUpstream(t, stack.Geo)

	edge1 := stack.Collector
	edge2 := collectserver.New(results.NewStore(), stack.TaskIndex, stack.Geo)
	edge2.Guard = nil
	newForwarder := func(store *results.Store) *federation.Forwarder {
		f, err := federation.NewForwarder(federation.ForwarderConfig{
			Upstream:      upSrv.URL,
			MaxBatch:      32,
			FlushInterval: 10 * time.Millisecond,
			WAL:           edgeWAL(t, store),
		})
		if err != nil {
			t.Fatal(err)
		}
		store.AddObserver(f)
		return f
	}
	f1 := newForwarder(edge1.Store)
	f2 := newForwarder(edge2.Store)

	// Phase 1: both edges share the traffic.
	stack.Population.Collector = &edgeSplitter{edges: []clientsim.SubmissionServer{edge1, edge2}}
	cfg := federationCampaign(phaseVisits)
	stack.Population.RunCampaign(cfg)

	// Edge 2 dies: drain its forwarder (an orderly loss; a crash-loss would
	// be bounded by the forwarder's flush interval) and reroute everything
	// to edge 1.
	if err := f2.Close(); err != nil {
		t.Fatalf("edge2 drain: %v", err)
	}
	edge2Committed := edge2.Store.Len()
	if edge2Committed == 0 {
		t.Fatal("edge2 saw no traffic before dying")
	}
	stack.Population.Collector = edge1

	// Phase 2: the survivor carries the rest of the campaign.
	cfg.Start = cfg.Start.Add(cfg.Duration)
	stack.Population.RunCampaign(cfg)
	if err := f1.Close(); err != nil {
		t.Fatalf("edge1 drain: %v", err)
	}

	if got, want := upStore.Len(), edge1.Store.Len()+edge2Committed; got != want {
		t.Fatalf("aggregation tier has %d records, edges committed %d", got, want)
	}
	// Every record either edge committed is upstream, final state intact.
	for _, edgeStore := range []*results.Store{edge1.Store, edge2.Store} {
		edgeStore.Range(func(m results.Measurement) bool {
			up, ok := upStore.Get(m.MeasurementID)
			if !ok {
				t.Errorf("measurement %s missing upstream", m.MeasurementID)
				return false
			}
			if up.State != m.State {
				t.Errorf("measurement %s state %s upstream, %s at edge", m.MeasurementID, up.State, m.State)
				return false
			}
			return true
		})
	}
	// The merged tier is analyzable end to end.
	verdicts := inference.New(inference.DefaultConfig()).DetectIncremental(upAgg)
	if len(verdicts) == 0 {
		t.Fatal("no verdicts over the merged aggregation tier")
	}
}

// TestFederationSurvivesEdgeCrashAndRestart is the lossless-federation
// acceptance test: an edge collector ingests under a WAL while its upstream
// is unreachable, crashes (no drain, no cursor advance), restarts by
// replaying the WAL, and its forwarder resumes from the persisted cursor.
// The upstream must end with the aggregation tier a never-partitioned
// single collector would have produced — verdict-for-verdict — with zero
// records dropped.
func TestFederationSurvivesEdgeCrashAndRestart(t *testing.T) {
	const seed, phaseVisits = 979, 200

	// Baseline: one collector ingests both phases directly.
	baseline := clientsim.BuildStack(clientsim.StackConfig{Seed: seed, Censor: censor.PaperPolicies()})
	baseline.Collector.Guard = nil
	baseCfg := federationCampaign(phaseVisits)
	baseline.Population.RunCampaign(baseCfg)
	baseCfg.Start = baseCfg.Start.Add(baseCfg.Duration)
	baseline.Population.RunCampaign(baseCfg)
	baseVerdicts := inference.New(inference.DefaultConfig()).DetectIncremental(baseline.Aggregator)
	if baseline.Store.Len() == 0 || len(baseVerdicts) == 0 {
		t.Fatalf("baseline produced nothing: %d stored, %d verdicts", baseline.Store.Len(), len(baseVerdicts))
	}

	// Federated: an identically seeded deployment with one WAL-backed edge
	// forwarding through a gate that simulates the upstream outage.
	stack := clientsim.BuildStack(clientsim.StackConfig{Seed: seed, Censor: censor.PaperPolicies()})
	stack.Collector.Guard = nil
	upStore, upAgg, upSrv := buildUpstream(t, stack.Geo)
	var down atomic.Bool
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "upstream down", http.StatusServiceUnavailable)
			return
		}
		upSrv.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(gate.Close)

	walDir := t.TempDir()
	wal, err := results.OpenWAL(results.WALConfig{Dir: walDir, Policy: results.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	edge := stack.Collector
	edge.AttachWAL(wal) // WAL observes first: commits are durable before the forwarder sees them
	newForwarder := func(w *results.WAL) *federation.Forwarder {
		f, err := federation.NewForwarder(federation.ForwarderConfig{
			Client: apiclient.NewWithConfig(gate.URL, apiclient.Config{
				Retries: 1, RetryBackoff: time.Millisecond,
			}),
			MaxBatch:      32,
			FlushInterval: 5 * time.Millisecond,
			WAL:           w,
			Logf:          t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1 := newForwarder(wal)
	edge.Store.AddObserver(f1)

	// Phase 1: upstream reachable; the cursor advances past acknowledged
	// traffic.
	cfg := federationCampaign(phaseVisits)
	stack.Population.RunCampaign(cfg)
	if err := f1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f1.Stats().AckedCursor == 0 {
		t.Fatal("cursor did not advance during the healthy phase")
	}

	// Phase 2: upstream down; the edge keeps ingesting under the WAL.
	down.Store(true)
	cfg.Start = cfg.Start.Add(cfg.Duration)
	stack.Population.RunCampaign(cfg)
	st := f1.Stats()
	if st.Lag == 0 {
		t.Fatalf("outage left no backlog waiting in the WAL: %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("WAL-backed edge dropped %d records during the outage", st.Dropped)
	}

	// Crash: no drain, no final cursor write; the WAL closes like a dead
	// process's file descriptors would.
	f1.Stop()
	edgeCommitted := edge.Store.Len()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if upStore.Len() >= edgeCommitted {
		t.Fatalf("upstream already complete (%d of %d) — the outage never bit", upStore.Len(), edgeCommitted)
	}

	// Restart: replay the WAL, reopen it, and let a fresh forwarder resume
	// from the cursor file persisted beside it.
	recovered, _, err := results.OpenStoreFromWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Len() != edgeCommitted {
		t.Fatalf("recovered store has %d records, crashed edge had %d", recovered.Len(), edgeCommitted)
	}
	wal2, err := results.OpenWAL(results.WALConfig{Dir: walDir, Policy: results.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	recovered.AddObserver(wal2)
	down.Store(false)
	f2 := newForwarder(wal2)
	recovered.AddObserver(f2)
	if err := f2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero loss: the upstream holds exactly what the edge committed, which
	// is exactly what the never-partitioned baseline stored.
	if upStore.Len() != edgeCommitted {
		t.Fatalf("upstream has %d records after resume, edge committed %d", upStore.Len(), edgeCommitted)
	}
	if upStore.Len() != baseline.Store.Len() {
		t.Fatalf("federated tier has %d records, baseline stored %d", upStore.Len(), baseline.Store.Len())
	}
	for _, f := range []*federation.Forwarder{f1, f2} {
		if st := f.Stats(); st.Dropped != 0 {
			t.Fatalf("forwarder dropped %d records: %+v", st.Dropped, st)
		}
	}

	// Bit-for-bit verdict equality with the single-collector run.
	fedVerdicts := inference.New(inference.DefaultConfig()).DetectIncremental(upAgg)
	if len(fedVerdicts) != len(baseVerdicts) {
		t.Fatalf("federated detection produced %d verdicts, baseline %d", len(fedVerdicts), len(baseVerdicts))
	}
	for i := range baseVerdicts {
		if fedVerdicts[i] != baseVerdicts[i] {
			t.Fatalf("verdict %d diverged after crash-restart:\n baseline: %+v\nfederated: %+v", i, baseVerdicts[i], fedVerdicts[i])
		}
	}
}
