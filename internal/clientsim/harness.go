package clientsim

import (
	"time"

	"encore/internal/censor"
	"encore/internal/collectserver"
	"encore/internal/coordserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/netsim"
	"encore/internal/node"
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

	node *node.Node
}

// Close closes the collector node (node.Node.Close). Stacks built without a
// WAL need not be closed, but calling Close is always safe.
func (s *Stack) Close() error { return s.node.Close() }

// StackConfig parameterizes BuildStack.
type StackConfig struct {
	Seed uint64
	// Censor provides the filtering policies; nil means an empty engine.
	Censor *censor.Engine
	// Targets is the measurement target list; nil means the §7.2 list
	// (YouTube, Twitter, Facebook).
	Targets *targets.List
	// Infra overrides the deployment's infrastructure layout (coordinator
	// mirrors, webmaster proxying); nil uses DefaultInfrastructure.
	Infra *Infrastructure
	// WAL, when non-nil, makes the simulated collector durable like a
	// production one (node.Config.WAL): its store is recovered from WAL.Dir
	// and every commit is logged there. The caller should Stack.Close when
	// done.
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
	// pipelineStarted is the crawl date pipeline.Generate runs at.
	pipelineStarted := time.Date(2014, 2, 26, 0, 0, 0, 0, time.UTC)

	// A medium-sized web suitable for campaigns, crawled by a Target Fetcher
	// at an unfiltered academic vantage point.
	gen, err := pipeline.Generate(pipeline.GenerateConfig{
		Web: webgen.Config{
			Seed:           cfg.Seed,
			TargetDomains:  webgen.HighValueTargets(),
			GenericDomains: 20,
			CDNDomains:     3,
			PagesPerDomain: 15,
		},
		Censor:      cfg.Censor,
		Targets:     cfg.Targets,
		GeoSeed:     cfg.Seed + 2,
		NetSeed:     cfg.Seed + 3,
		FetcherSeed: cfg.Seed + 4,
	})
	if err != nil {
		panic("clientsim: " + err.Error())
	}

	index := results.NewTaskIndex()
	// The aggregator keeps week buckets, the window the examples' and
	// reports' longitudinal analyses run at.
	collector, err := node.Open(node.Config{
		Index:      index,
		Geo:        gen.Geo,
		Aggregator: results.AggregatorConfig{Window: 7 * 24 * time.Hour, Epoch: pipelineStarted},
		WAL:        cfg.WAL,
	})
	if err != nil {
		panic("clientsim: opening the collector: " + err.Error())
	}

	infra := DefaultInfrastructure()
	if cfg.Infra != nil {
		infra = *cfg.Infra
	}
	schedCfg := scheduler.DefaultConfig()
	schedCfg.Seed = cfg.Seed + 1
	coord, err := coordserver.Open(coordserver.Config{
		Tasks:     gen.Report.Tasks,
		Scheduler: schedCfg,
		Index:     index,
		Geo:       gen.Geo,
		Snippet: core.SnippetOptions{
			CoordinatorURL: "//" + infra.CoordinatorDomain,
			CollectorURL:   "//" + infra.CollectorDomain,
		},
	})
	if err != nil {
		panic("clientsim: opening the coordinator: " + err.Error())
	}
	pop := New(gen.Net, gen.Geo, coord, collector.Server, infra, cfg.Seed+5)

	return &Stack{
		Web:         gen.Web,
		Geo:         gen.Geo,
		Censor:      cfg.Censor,
		Net:         gen.Net,
		Report:      gen.Report,
		Scheduler:   coord.Scheduler,
		TaskIndex:   index,
		Store:       collector.Server.Store,
		Aggregator:  collector.Aggregator,
		WAL:         collector.WAL,
		Coordinator: coord,
		Collector:   collector.Server,
		Population:  pop,
		Infra:       infra,
		node:        collector,
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
