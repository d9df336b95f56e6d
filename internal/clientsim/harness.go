package clientsim

import (
	"time"

	"encore/internal/browser"
	"encore/internal/censor"
	"encore/internal/collectserver"
	"encore/internal/coordserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/netsim"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
	"encore/internal/targets"
	"encore/internal/webgen"
)

// Stack bundles a complete, wired Encore deployment over the synthetic
// substrates: the generated Web, censor, network, task pipeline output,
// scheduler, coordination and collection servers, and a client population.
// Examples, benchmarks, and integration tests build a Stack instead of wiring
// the dozen components by hand.
type Stack struct {
	Web       *webgen.Web
	Geo       *geo.Registry
	Censor    *censor.Engine
	Net       *netsim.Network
	Pipeline  *pipeline.Pipeline
	Report    *pipeline.Report
	Scheduler *scheduler.Scheduler
	TaskIndex *results.TaskIndex
	Store     *results.Store
	// Aggregator is the incremental aggregation tier, attached to Store as
	// its commit observer: every measurement the collector accepts updates
	// its pattern×region group counters at commit time, so detection (inference.Detector.DetectIncremental)
	// reads finished counters instead of rescanning the store.
	Aggregator *results.Aggregator
	// WAL is the durable commit log attached to Store when StackConfig.WAL
	// was set; nil otherwise. Call Stack.Close when done so the log is
	// synced and its files closed.
	WAL         *results.WAL
	Coordinator *coordserver.Server
	Collector   *collectserver.Server
	Population  *Population
	Infra       Infrastructure
}

// Close releases the stack's durable resources: it closes the collector's
// write path (flushing any forwarder, syncing the WAL) and then
// closes the WAL itself. Stacks built without a WAL need not be closed, but
// calling Close is always safe.
func (s *Stack) Close() error {
	err := s.Collector.Close()
	if s.WAL != nil {
		if cerr := s.WAL.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// StackConfig parameterizes BuildStack.
type StackConfig struct {
	Seed uint64
	// Censor provides the filtering policies; nil means an empty engine.
	Censor *censor.Engine
	// Targets is the measurement target list; nil means the §7.2 list
	// (YouTube, Twitter, Facebook).
	Targets *targets.List
	// WebConfig overrides the synthetic Web; zero value uses a medium-sized
	// web suitable for campaigns.
	WebConfig webgen.Config
	// SchedulerConfig overrides scheduling parameters.
	SchedulerConfig scheduler.Config
	// PipelineStarted is the nominal time of the task-generation crawl.
	PipelineStarted time.Time
	// AggregatorWindow is the time-bucket size the incremental aggregation
	// tier maintains for longitudinal views; zero means one week, matching
	// the windowed analyses the examples and reports run. Negative disables
	// windowed tracking.
	AggregatorWindow time.Duration
	// Infra overrides the deployment's infrastructure layout (coordinator
	// mirrors, webmaster proxying); nil uses DefaultInfrastructure.
	Infra *Infrastructure
	// WAL, when non-nil, attaches a durable write-ahead log to the stack's
	// store (results.OpenWAL with this configuration) so the simulated
	// collector persists every committed measurement like a production one
	// would. The caller should Stack.Close when done.
	WAL *results.WALConfig
}

// BuildStack assembles a full deployment. The pipeline is run as part of the
// build so the scheduler starts with a generated task set.
func BuildStack(cfg StackConfig) *Stack {
	if cfg.Censor == nil {
		cfg.Censor = censor.NewEngine()
	}
	if cfg.Targets == nil {
		cfg.Targets = targets.MeasurementStudyList()
	}
	if cfg.WebConfig.TargetDomains == nil {
		cfg.WebConfig = webgen.Config{
			Seed:           cfg.Seed,
			TargetDomains:  webgen.HighValueTargets(),
			GenericDomains: 20,
			CDNDomains:     3,
			PagesPerDomain: 15,
		}
	}
	if cfg.SchedulerConfig.QuorumWindow == 0 {
		cfg.SchedulerConfig = scheduler.DefaultConfig()
		cfg.SchedulerConfig.Seed = cfg.Seed + 1
	}
	if cfg.PipelineStarted.IsZero() {
		cfg.PipelineStarted = time.Date(2014, 2, 26, 0, 0, 0, 0, time.UTC)
	}

	web := webgen.Generate(cfg.WebConfig)
	g := geo.NewRegistry(cfg.Seed + 2)
	net := netsim.New(netsim.Config{Web: web, Censor: cfg.Censor, Geo: g, Seed: cfg.Seed + 3})

	// The Target Fetcher runs from an unfiltered academic vantage point.
	fetcherClient, err := net.NewClient("US")
	if err != nil {
		panic("clientsim: building fetcher client: " + err.Error())
	}
	fetcherClient.Unreliability = 0
	fetcher := browser.New(core.BrowserChrome, fetcherClient, net, cfg.Seed+4)

	pl := pipeline.New(web, fetcher, pipeline.DefaultConfig())
	report := pl.Run(cfg.Targets, cfg.PipelineStarted)

	sched := scheduler.New(report.Tasks, cfg.SchedulerConfig)
	index := results.NewTaskIndex()
	store := results.NewStore()

	aggWindow := cfg.AggregatorWindow
	if aggWindow == 0 {
		aggWindow = 7 * 24 * time.Hour
	}
	if aggWindow < 0 {
		aggWindow = 0
	}
	agg := results.NewAggregator(results.AggregatorConfig{
		Window: aggWindow,
		Epoch:  cfg.PipelineStarted,
	})

	infra := DefaultInfrastructure()
	if cfg.Infra != nil {
		infra = *cfg.Infra
	}
	snippet := core.SnippetOptions{
		CoordinatorURL: "//" + infra.CoordinatorDomain,
		CollectorURL:   "//" + infra.CollectorDomain,
	}
	coord := coordserver.New(sched, index, g, snippet)
	collect := collectserver.New(store, index, g)
	collect.AttachAggregator(agg)
	var wal *results.WAL
	if cfg.WAL != nil {
		var err error
		wal, err = results.OpenWAL(*cfg.WAL)
		if err != nil {
			panic("clientsim: opening WAL: " + err.Error())
		}
		collect.AttachWAL(wal)
	}
	pop := New(net, g, coord, collect, infra, cfg.Seed+5)

	return &Stack{
		Web:         web,
		Geo:         g,
		Censor:      cfg.Censor,
		Net:         net,
		Pipeline:    pl,
		Report:      report,
		Scheduler:   sched,
		TaskIndex:   index,
		Store:       store,
		Aggregator:  agg,
		WAL:         wal,
		Coordinator: coord,
		Collector:   collect,
		Population:  pop,
		Infra:       infra,
	}
}

// GroundTruth returns an inference oracle backed by the stack's censor
// engine: a pattern/region pair is truly filtered when the censor filters the
// pattern's canonical URL for that region. Testbed patterns are never
// considered (they are controls).
func (s *Stack) GroundTruth() func(patternKey string, region geo.CountryCode) bool {
	// Map pattern keys back to a representative URL via the task set.
	repr := make(map[string]string)
	for _, c := range s.Report.Tasks.All() {
		if _, ok := repr[c.PatternKey]; !ok {
			repr[c.PatternKey] = c.TargetURL
		}
	}
	return func(patternKey string, region geo.CountryCode) bool {
		url, ok := repr[patternKey]
		if !ok {
			return false
		}
		return s.Censor.IsFiltered(region, url)
	}
}
