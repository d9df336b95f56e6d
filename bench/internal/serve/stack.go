// Package serve is the program under test as the benchmark runs it: the
// `encore-bench serve` child process. It wires the same exported
// constructors the shipped binaries use — clientsim.BuildStack and
// coordserver for the coordinator, collectserver.New with an aggregator, a
// WAL and a federation forwarder for the collectors — at the shipped
// defaults, and adds a control port the harness uses outside timed windows.
//
// The shipped encore-collector cannot be used as it stands: it keeps a
// private TaskIndex, so it cannot attribute a raw v2 submission the
// coordinator registered, and it cannot lift the 120-per-hour AbuseGuard
// that one 256-record batch from one address trips at once. Build is also
// what the traced replay calls in-process, with span wrappers around the
// observers, so the socket run and the trace measure one wiring.
package serve

import (
	"fmt"
	"net/http"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/api/federation"
	"encore/internal/clientsim"
	"encore/internal/collectserver"
	"encore/internal/coordserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/results"

	"encore/bench/internal/gen"
)

// Forwarder encodings a Config can ask for.
const (
	ForwardNone   = ""
	ForwardJSON   = "json"
	ForwardBinary = "binary"
)

// attributedToken is the shared secret between the edge's forwarder and the
// upstream's attributed lane; the lane is never open without one in a real
// deployment, so the benchmark pays for the comparison too.
const attributedToken = "encore-bench-federation"

// Config names the topology one workload runs against.
type Config struct {
	// Coordinator adds a coordination server sharing the edge's TaskIndex.
	Coordinator bool
	// WALDir is the edge collector's write-ahead log directory; empty runs
	// without a WAL. An existing log is replayed before serving.
	WALDir string
	// Forward adds an upstream collector and an edge forwarder with the
	// named encoding.
	Forward string
}

// deploymentSeed seeds the simulated deployment behind the coordinator (its
// synthetic web, and from that its task set). It is part of the program under
// test, not of a run's input: with the run's seed here, seeds would differ in
// how many tasks a visit is handed, and runs would not be comparable.
const deploymentSeed = 1

// Observers lets the traced replay substitute a span-recording wrapper for
// each commit observer as it is attached. tier is "edge" or "upstream", name
// the observer's layer. A nil Observers attaches the observers themselves.
type Observers func(tier, name string, obs results.CommitObserver) results.CommitObserver

// Reach makes a collector reachable and returns the base URL and HTTP client
// the edge's forwarder talks to it with (a nil client means the SDK's
// default). The serve process listens on a loopback port; the traced replay
// answers with an in-process transport.
type Reach func(upstream http.Handler) (baseURL string, hc *http.Client, err error)

// Stack is one wired topology.
type Stack struct {
	Coordinator *coordserver.Server
	Edge        *collectserver.Server
	EdgeAgg     *results.Aggregator
	// Upstream and UpstreamAgg are nil without a forwarder.
	Upstream    *collectserver.Server
	UpstreamAgg *results.Aggregator
	WAL         *results.WAL
	Forwarder   *federation.Forwarder
	Index       *results.TaskIndex
	Detector    *inference.Detector
}

// OpenGuard is the abuse guard with its rate limit lifted, as the repo's own
// ingest benchmarks run it: the guard's lookups still happen on every
// submission, only the 120-per-hour verdict cannot.
func OpenGuard() *collectserver.AbuseGuard {
	return collectserver.NewAbuseGuard(collectserver.AbuseGuardConfig{
		MaxSubmissionsPerWindow: 1 << 30, Window: time.Hour,
	})
}

// NewAggregator is the analysis tier as clientsim.BuildStack attaches it,
// the only shipped wiring that has one.
func NewAggregator() *results.Aggregator {
	return results.NewAggregator(results.AggregatorConfig{Window: 7 * 24 * time.Hour})
}

// Build wires the topology cfg names. obs and reach may be nil when the
// topology has nothing to wrap or no upstream to reach.
func Build(cfg Config, obs Observers, reach Reach) (*Stack, error) {
	st := &Stack{Detector: inference.New(inference.Config{})}
	g := geo.NewRegistry(1)

	if cfg.Coordinator {
		sim := clientsim.BuildStack(clientsim.StackConfig{Seed: deploymentSeed})
		st.Coordinator = sim.Coordinator
		st.Index = sim.TaskIndex
		g = sim.Geo
	} else {
		st.Index = results.NewTaskIndex()
	}

	store := results.NewStore()
	if cfg.WALDir != "" {
		recovered, _, err := results.OpenStoreFromWAL(cfg.WALDir)
		if err != nil {
			return nil, fmt.Errorf("serve: recovering store from WAL: %w", err)
		}
		store = recovered
	}
	st.EdgeAgg = NewAggregator()
	if store.Len() > 0 {
		st.EdgeAgg.Backfill(store)
	}
	st.Edge = collectserver.New(store, st.Index, g)
	st.Edge.Guard = OpenGuard()
	attach(st.Edge, obs, "edge", "aggregator", st.EdgeAgg)

	if cfg.WALDir != "" {
		wal, err := results.OpenWAL(results.WALConfig{
			Dir:          cfg.WALDir,
			Policy:       results.SyncInterval,
			Interval:     200 * time.Millisecond,
			SegmentBytes: 16 << 20,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: opening WAL: %w", err)
		}
		st.WAL = wal
		// Before the forwarder, so a commit is durable by the time the
		// forwarder can ship it.
		attach(st.Edge, obs, "edge", "wal", wal)
	}

	if cfg.Forward != ForwardNone {
		st.UpstreamAgg = NewAggregator()
		st.Upstream = collectserver.New(results.NewStore(), results.NewTaskIndex(), g)
		st.Upstream.AllowAttributed = true
		st.Upstream.AttributedToken = attributedToken
		attach(st.Upstream, obs, "upstream", "aggregator", st.UpstreamAgg)

		base, hc, err := reach(st.Upstream)
		if err != nil {
			return nil, fmt.Errorf("serve: reaching the upstream: %w", err)
		}
		fwd, err := federation.NewForwarder(federation.ForwarderConfig{
			Client: apiclient.NewWithConfig(base, apiclient.Config{
				HTTPClient:     hc,
				AuthToken:      attributedToken,
				BinaryEncoding: cfg.Forward == ForwardBinary,
			}),
			MaxBatch:      128,
			FlushInterval: 200 * time.Millisecond,
			MaxBuffer:     1 << 18,
			WAL:           st.WAL,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: starting the forwarder: %w", err)
		}
		st.Forwarder = fwd
		st.Edge.Forwarder = fwd
		attach(st.Edge, obs, "edge", "forwarder", fwd)
	}
	return st, nil
}

// attach adds one observer to a collector's store, through the collector's
// own Attach methods when nothing wraps it.
func attach(srv *collectserver.Server, obs Observers, tier, name string, o results.CommitObserver) {
	if obs != nil {
		if w, ok := o.(*results.WAL); ok {
			srv.WAL = w
		}
		srv.Store.AddObserver(obs(tier, name, o))
		return
	}
	switch v := o.(type) {
	case *results.Aggregator:
		srv.AttachAggregator(v)
	case *results.WAL:
		srv.AttachWAL(v)
	default:
		srv.Store.AddObserver(o)
	}
}

// finalAggregator is the aggregator analysis reads: the upstream's when
// there is one.
func (st *Stack) finalAggregator() *results.Aggregator {
	if st.UpstreamAgg != nil {
		return st.UpstreamAgg
	}
	return st.EdgeAgg
}

// Register enters a generated manifest in the edge's TaskIndex, as the
// coordinator would have when it handed the tasks out.
func (st *Stack) Register(manifest []byte) (int, error) {
	n := 0
	err := gen.DecodeManifest(manifest, func(e gen.ManifestEntry) {
		st.Index.Register(core.Task{
			MeasurementID: e.ID,
			Type:          core.TaskImage,
			TargetURL:     gen.PatternURL(e.Pattern),
			PatternKey:    gen.PatternKey(e.Pattern),
		})
		n++
	})
	return n, err
}

// Close shuts the write path down in the collector's own order (forwarder
// drained, WAL synced) and closes the log.
func (st *Stack) Close() error {
	err := st.Edge.Close()
	if st.WAL != nil {
		if cerr := st.WAL.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
