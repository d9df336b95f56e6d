package pipeline

import (
	"fmt"
	"time"

	"encore/internal/browser"
	"encore/internal/censor"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/netsim"
	"encore/internal/targets"
	"encore/internal/webgen"
)

// GenerateConfig names one task-generation run over the synthetic Web.
type GenerateConfig struct {
	// Web is the synthetic Web to generate and crawl.
	Web webgen.Config
	// Censor filters the network the crawl runs on; nil is an empty engine.
	Censor *censor.Engine
	// Targets is the list the Pattern Expander starts from.
	Targets *targets.List
	// GeoSeed, NetSeed and FetcherSeed seed the GeoIP registry, the network
	// and the Target Fetcher's browser.
	GeoSeed, NetSeed, FetcherSeed uint64
}

// Generated is a generated task set (Report.Tasks) and the substrate it was
// crawled from, which a simulated deployment keeps using.
type Generated struct {
	Web    *webgen.Web
	Geo    *geo.Registry
	Net    *netsim.Network
	Report *Report
}

// Generate generates the Web cfg names, builds the network over it, and
// runs the pipeline over cfg.Targets with the Target Fetcher at an
// unfiltered US vantage point, as of the paper's crawl date. It is the one
// place a task set is generated from seeds.
func Generate(cfg GenerateConfig) (*Generated, error) {
	if cfg.Censor == nil {
		cfg.Censor = censor.NewEngine()
	}
	c := &Generated{Web: webgen.Generate(cfg.Web), Geo: geo.NewRegistry(cfg.GeoSeed)}
	c.Net = netsim.New(netsim.Config{Web: c.Web, Censor: cfg.Censor, Geo: c.Geo, Seed: cfg.NetSeed})
	vantage, err := c.Net.NewClient("US")
	if err != nil {
		return nil, fmt.Errorf("pipeline: building the Target Fetcher's client: %w", err)
	}
	vantage.Unreliability = 0
	fetcher := browser.New(core.BrowserChrome, vantage, c.Net, cfg.FetcherSeed)
	c.Report = New(c.Web, fetcher).Run(cfg.Targets, time.Date(2014, 2, 26, 0, 0, 0, 0, time.UTC))
	return c, nil
}
