// Command encore-coordinator runs Encore's coordination server (§5.3-§5.4).
// It generates a task set by running the task-generation pipeline over the
// built-in measurement-study target list (or the -targets file, one pattern
// per line, see internal/targets) against the synthetic Web, then serves
// /task.js, /frame.html and the v2 API, scheduling tasks for each client. A
// list holding risk=high entries is refused at start-up (§8).
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"strings"
	"time"

	"encore/internal/api"
	"encore/internal/coordfed"
	"encore/internal/coordserver"
	"encore/internal/core"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
	"encore/internal/targets"
	"encore/internal/webgen"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		collectorURL = flag.String("collector", "//localhost:8081", "collection server base URL embedded in task scripts")
		coordURL     = flag.String("self", "//localhost:8080", "this server's public base URL (used in the embed snippet)")
		targetsPath  = flag.String("targets", "", "path to a target list file; defaults to the built-in YouTube/Twitter/Facebook list")
		seed         = flag.Uint64("seed", 1, "seed for the synthetic Web and scheduling randomness")
		pprofAddr    = flag.String("pprof", "", "optional side-port listen address for net/http/pprof (e.g. localhost:6060), for profiling scheduler contention under load")
		origin       = flag.String("origin", "", "this coordinator's federation identity; required with -peer, must be unique across the federation (use a fresh value when restarting with an empty scheduler)")
		gossipEvery  = flag.Duration("gossip-interval", time.Second, "target gap between anti-entropy gossip rounds per peer (full-jittered)")
		gossipToken  = flag.String("gossip-token", "", "shared bearer token peers must present on POST /v2/gossip (and this coordinator sends outbound)")
		peers        []string
	)
	flag.Func("peer", "peer coordinator base URL (repeatable, or comma-separated); enables the replicated-coordinator federation", func(v string) error {
		peers = append(peers, strings.FieldsFunc(v, func(r rune) bool { return r == ',' || r == ' ' })...)
		return nil
	})
	flag.Parse()

	list := targets.MeasurementStudyList()
	if *targetsPath != "" {
		var err error
		list, err = targets.ReadFile(*targetsPath, "file")
		check(err)
	}
	check(list.CheckSchedulable())
	gen, err := pipeline.Generate(pipeline.GenerateConfig{Web: webgen.DefaultConfig(*seed), Targets: list,
		GeoSeed: *seed, NetSeed: *seed, FetcherSeed: *seed})
	check(err)
	log.Printf("pipeline: %s", gen.Report.Summary())
	cfg := coordserver.Config{Tasks: gen.Report.Tasks, Scheduler: scheduler.DefaultConfig(), Index: results.NewTaskIndex(),
		Geo: gen.Geo, Snippet: core.SnippetOptions{CoordinatorURL: *coordURL, CollectorURL: *collectorURL}}
	cfg.Scheduler.Seed = *seed
	if len(peers) > 0 {
		cfg.Federation = &coordfed.Config{Origin: *origin, Peers: peers, Interval: *gossipEvery,
			Token: *gossipToken, Seed: *seed, Logf: log.Printf}
	}
	server, err := coordserver.Open(cfg)
	check(err)
	if *pprofAddr != "" { // net/http/pprof's handlers, on a side port away from client traffic
		pprofLn := listen(*pprofAddr)
		go func() {
			if err := api.Serve(context.Background(), pprofLn, http.DefaultServeMux); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	log.Printf("webmasters embed: %s", core.EmbedSnippet(cfg.Snippet))
	check(server.Serve(context.Background(), listen(*addr)))
}

func listen(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	check(err)
	log.Printf("listening on http://%s", ln.Addr())
	return ln
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
