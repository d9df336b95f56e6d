// Command encore-coordinator runs Encore's coordination server: it serves the
// embed snippet target (/task.js and /frame.html) and schedules measurement
// tasks for each requesting client (§5.3-§5.4).
//
// The server needs a task set to schedule from. By default it generates one
// by running the task-generation pipeline over the built-in measurement-study
// target list against the synthetic Web; pass -targets to use a custom list
// file (one pattern per line, see internal/targets).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"encore/internal/api"
	"encore/internal/browser"
	"encore/internal/censor"
	"encore/internal/coordfed"
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

// peerList collects repeated -peer flags.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	for _, u := range strings.Split(v, ",") {
		if u = strings.TrimSpace(u); u != "" {
			*p = append(*p, u)
		}
	}
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		collectorURL = flag.String("collector", "//localhost:8081", "collection server base URL embedded in task scripts")
		coordURL     = flag.String("self", "//localhost:8080", "this server's public base URL (used in the embed snippet)")
		targetsPath  = flag.String("targets", "", "path to a target list file; defaults to the built-in YouTube/Twitter/Facebook list")
		seed         = flag.Uint64("seed", 1, "seed for the synthetic Web and scheduling randomness")
		pprofAddr    = flag.String("pprof", "", "optional side-port listen address for net/http/pprof (e.g. localhost:6060), for profiling scheduler contention under load")

		origin         = flag.String("origin", "", "this coordinator's federation identity; required with -peer, must be unique across the federation (use a fresh value when restarting with an empty scheduler)")
		gossipInterval = flag.Duration("gossip-interval", time.Second, "target gap between anti-entropy gossip rounds per peer (full-jittered)")
		gossipToken    = flag.String("gossip-token", "", "shared bearer token peers must present on POST /v2/gossip (and this coordinator sends outbound)")
	)
	var peers peerList
	flag.Var(&peers, "peer", "peer coordinator base URL (repeatable, or comma-separated); enables the replicated-coordinator federation")
	flag.Parse()

	if *pprofAddr != "" {
		// net/http/pprof registers its handlers on http.DefaultServeMux; the
		// profiling listener serves that mux on a side port so profiles never
		// share a listener with client traffic.
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	list := targets.MeasurementStudyList()
	if *targetsPath != "" {
		f, err := os.Open(*targetsPath)
		if err != nil {
			log.Fatalf("opening target list: %v", err)
		}
		parsed, err := targets.ReadFrom(f, "file")
		f.Close()
		if err != nil {
			log.Fatalf("parsing target list: %v", err)
		}
		list = parsed
	}

	web := webgen.Generate(webgen.DefaultConfig(*seed))
	g := geo.NewRegistry(*seed)
	net := netsim.New(netsim.Config{Web: web, Censor: censor.NewEngine(), Geo: g, Seed: *seed})
	fetcherClient, err := net.NewClient("US")
	if err != nil {
		log.Fatalf("building fetcher client: %v", err)
	}
	fetcherClient.Unreliability = 0
	fetcher := browser.New(core.BrowserChrome, fetcherClient, net, *seed)

	log.Printf("running task-generation pipeline over %d target patterns", list.Len())
	pl := pipeline.New(web, fetcher)
	report := pl.Run(list, time.Now())
	log.Printf("pipeline: %s", report.Summary())

	schedCfg := scheduler.DefaultConfig()
	schedCfg.Seed = *seed
	sched := scheduler.New(report.Tasks, schedCfg)
	index := results.NewTaskIndex()
	snippet := core.SnippetOptions{CoordinatorURL: *coordURL, CollectorURL: *collectorURL}
	server := coordserver.New(sched, index, g, snippet)

	if len(peers) > 0 {
		if *origin == "" {
			log.Fatalf("-peer requires -origin (a unique federation identity)")
		}
		fed, err := coordfed.New(coordfed.Config{
			Origin:    *origin,
			Scheduler: sched,
			Peers:     peers,
			Interval:  *gossipInterval,
			Token:     *gossipToken,
			Seed:      *seed,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatalf("building coordinator federation: %v", err)
		}
		server.Federation = fed
		fed.Start()
		defer fed.Close()
		log.Printf("federation: origin %s gossiping with %d peer(s) every ~%s on %s",
			*origin, len(peers), *gossipInterval, api.V2GossipPath)
	}

	log.Printf("webmasters embed: %s", core.EmbedSnippet(snippet))
	log.Printf("API: v1 %s %s %s %s | v2 %s %s",
		api.V1TaskJSPath, api.V1FramePath, api.V1HealthPath, api.V1CoveragePath,
		api.V2TasksPath, api.V2HealthPath)
	runServer(*addr, server, "coordination server")
}

// runServer starts an HTTP server and blocks until interrupted.
func runServer(addr string, handler http.Handler, name string) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		log.Printf("%s listening on %s", name, addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("%s: %v", name, err)
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("%s shutdown: %v", name, err)
	}
	fmt.Println("bye")
}
