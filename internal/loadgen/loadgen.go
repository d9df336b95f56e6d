// Package loadgen drives a full in-process Encore deployment — coordination
// server, client simulator, and collection server — with K concurrent
// simulated clients and reports the achieved ingest throughput. The paper's
// collection server must absorb beacon submissions from clients mid-page-view
// at deployment scale (§5.5, §8); loadgen is the harness that measures
// whether the sharded stores, sharded abuse guard, and synchronous ingest
// pipeline actually deliver that headroom on a given machine.
package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/clientsim"
	"encore/internal/inference"
	"encore/internal/results"
)

// Transport selects how simulated clients deliver submissions to the
// collection server.
type Transport string

const (
	// TransportInProcess submits through the collector's programmatic
	// Accept entry point — no HTTP on the submission path (the seed
	// behaviour, and the ceiling the wire transports are compared against).
	TransportInProcess Transport = ""
	// TransportBeacon submits over real loopback HTTP with one v1
	// image-beacon GET per submission, via the API client SDK. The beacon
	// format carries no timestamp, so the collector stamps submissions on
	// arrival — wall-clock time, not the campaign's simulated time; runs
	// that feed time-window analyses should use TransportV2.
	TransportBeacon Transport = "beacon"
	// TransportV2 submits over real loopback HTTP with one v2 JSON POST per
	// submission, via the API client SDK; the simulated observation time
	// travels in the request, so campaign timelines survive the wire.
	TransportV2 Transport = "v2"
	// TransportV2Binary is TransportV2 with the SDK's binary encoding: the
	// same v2 batch endpoint, but each submission ships as a CRC-framed
	// application/x-encore-records frame instead of a JSON body — the
	// wire-speed lane, measured against the JSON one by bench/.
	TransportV2Binary Transport = "v2bin"
)

// Config parameterizes a load-generation run.
type Config struct {
	// Clients is the number of concurrent simulated client streams (worker
	// goroutines). Each stream forks the population's RNG and issues visits
	// back-to-back.
	Clients int
	// Visits is the total number of origin-page visits across all streams;
	// an uneven split is spread over the streams.
	Visits int
	// Start is the nominal campaign start time stamped on measurements.
	Start time.Time
	// SimulatedDuration is the campaign interval the visit timestamps span;
	// it is simulation time, not wall-clock time.
	SimulatedDuration time.Duration
	// Transport selects the submission path: in-process Accept calls
	// (default), or real loopback HTTP through the API client SDK
	// (TransportBeacon / TransportV2).
	Transport Transport
	// HTTPTransport, when set with a wire Transport, is the
	// http.RoundTripper the SDK client dials through — the seam chaos
	// campaigns use to interpose fault injection on the submission path.
	HTTPTransport http.RoundTripper
}

// Result reports what a load run achieved.
type Result struct {
	Clients int
	// Transport is the submission path the run used.
	Transport      Transport
	Visits         int
	TasksAssigned  int
	TasksSubmitted int
	// Stored is the collection store's record count after the run (init
	// records upgraded in place, so Stored <= TasksSubmitted + inits).
	Stored int
	// Elapsed is the wall-clock time of the concurrent drive, including the
	// final WAL sync.
	Elapsed time.Duration
	// SubmissionsPerSec is TasksSubmitted / Elapsed — the headline ingest
	// throughput.
	SubmissionsPerSec float64
	// AssignmentsPerSec is TasksAssigned / Elapsed, the coordination-side
	// throughput of the same run — the number the sharded assignment tier
	// (per-region coverage shards, compiled candidate pools) is measured by
	// end to end.
	AssignmentsPerSec float64
	// CoverageRegions is how many distinct client regions the scheduler
	// balanced coverage for during the run, and CoverageSpread the largest
	// per-region max−min assignment spread across schedulable patterns, both
	// read from Scheduler.CoverageSnapshot after the drive.
	CoverageRegions int
	CoverageSpread  int
	// Groups is the number of pattern×region cells the incremental
	// aggregation tier maintained during the run (0 when the stack has no
	// aggregator attached).
	Groups int
	// DetectIncremental is the latency of one filtering-detection pass over
	// the incrementally maintained group counters after the run drained —
	// the analysis-side number the streaming tier exists to keep flat as the
	// store grows.
	DetectIncremental time.Duration
	// WALAttached reports whether the stack persisted the run through a
	// write-ahead log; WAL then holds the log's counters after the final
	// sync, so a run with the WAL on can be compared against one with it off
	// (the durability-overhead question). WALErr is the log's sticky
	// error, if any — non-nil means the counters describe a log that stopped
	// recording mid-run and the throughput comparison is invalid.
	WALAttached bool
	WAL         results.WALStats
	WALErr      error
}

// String renders the result as a one-line report.
func (r Result) String() string {
	transport := "in-process"
	if r.Transport != TransportInProcess {
		transport = "http/" + string(r.Transport)
	}
	s := fmt.Sprintf("loadgen: %d clients (%s), %d visits, %d assigned, %d submitted, %d stored in %v (%.0f submissions/s, %.0f assignments/s)",
		r.Clients, transport, r.Visits, r.TasksAssigned, r.TasksSubmitted, r.Stored,
		r.Elapsed.Round(time.Millisecond), r.SubmissionsPerSec, r.AssignmentsPerSec)
	if r.CoverageRegions > 0 {
		s += fmt.Sprintf("; coverage over %d regions (max spread %d)", r.CoverageRegions, r.CoverageSpread)
	}
	if r.Groups > 0 {
		s += fmt.Sprintf("; incremental detection over %d groups in %v", r.Groups, r.DetectIncremental)
	}
	if r.WALAttached {
		s += fmt.Sprintf("; WAL %d records / %.1f MiB / %d segments / %d fsyncs",
			r.WAL.Records, float64(r.WAL.Bytes)/(1<<20), r.WAL.Segments, r.WAL.Fsyncs)
		if r.WALErr != nil {
			s += fmt.Sprintf(" [WAL FAILED: %v]", r.WALErr)
		}
	}
	return s
}

// Run drives the stack's population with cfg.Clients concurrent streams and
// reports throughput. Measurements accumulate in the stack's store; every
// submission has committed by the time its client call returns, so the store
// is complete for any analysis that follows.
func Run(stack *clientsim.Stack, cfg Config) Result {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Visits <= 0 {
		cfg.Visits = cfg.Clients
	}
	if cfg.SimulatedDuration <= 0 {
		cfg.SimulatedDuration = 24 * time.Hour
	}

	// Wire transports: serve the collector on a loopback listener and point
	// the population's submissions at it through the SDK, so the measured
	// path includes HTTP parsing, routing, and response writing.
	if cfg.Transport != TransportInProcess {
		srv := httptest.NewServer(stack.Collector)
		defer srv.Close()
		var clientCfg apiclient.Config
		if cfg.HTTPTransport != nil {
			clientCfg.HTTPClient = &http.Client{
				Transport: cfg.HTTPTransport,
				Timeout:   30 * time.Second,
			}
		}
		clientCfg.BinaryEncoding = cfg.Transport == TransportV2Binary
		prev := stack.Population.Collector
		stack.Population.Collector = &clientsim.RemoteCollector{
			Client: apiclient.NewWithConfig(srv.URL, clientCfg),
			UseV2:  cfg.Transport == TransportV2 || cfg.Transport == TransportV2Binary,
		}
		defer func() { stack.Population.Collector = prev }()
	}

	started := time.Now()
	campaign := stack.Population.RunCampaignConcurrent(clientsim.CampaignConfig{
		Visits:   cfg.Visits,
		Start:    cfg.Start,
		Duration: cfg.SimulatedDuration,
	}, cfg.Clients)
	var walErr error
	if stack.WAL != nil {
		// The durability cost belongs in the measured window: sync before
		// stopping the clock, exactly as a collector shutting down would.
		walErr = stack.WAL.Sync()
	}
	elapsed := time.Since(started)

	res := Result{
		Clients:        cfg.Clients,
		Transport:      cfg.Transport,
		Visits:         campaign.Visits,
		TasksAssigned:  campaign.TasksAssigned,
		TasksSubmitted: campaign.TasksSubmitted,
		Stored:         stack.Store.Len(),
		Elapsed:        elapsed,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.SubmissionsPerSec = float64(campaign.TasksSubmitted) / secs
		res.AssignmentsPerSec = float64(campaign.TasksAssigned) / secs
	}
	if stack.WAL != nil {
		res.WALAttached = true
		res.WAL = stack.WAL.Stats()
		res.WALErr = walErr
	}
	if stack.Scheduler != nil {
		coverage := stack.Scheduler.CoverageSnapshot()
		res.CoverageRegions = len(coverage)
		for _, rc := range coverage {
			if spread := rc.Max - rc.Min; spread > res.CoverageSpread {
				res.CoverageSpread = spread
			}
		}
	}
	if stack.Aggregator != nil {
		detectStarted := time.Now()
		verdicts := inference.New(inference.DefaultConfig()).DetectIncremental(stack.Aggregator)
		res.DetectIncremental = time.Since(detectStarted)
		res.Groups = len(verdicts)
	}
	return res
}
