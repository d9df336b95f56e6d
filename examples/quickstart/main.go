// Quickstart: the smallest end-to-end use of the Encore library.
//
// It builds a deployment over the synthetic substrates (Web, censor,
// network), lets one simulated client in Pakistan and one in the United
// States visit an Encore-hosting origin page, and shows how the cross-origin
// measurement tasks they execute reveal that youtube.com is reachable from
// one vantage point but not the other.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
)

func main() {
	// 1. Build a full deployment: synthetic Web, the paper's censorship
	//    policies, task-generation pipeline, scheduler, and servers.
	stack := clientsim.BuildStack(clientsim.StackConfig{
		Seed:   42,
		Censor: censor.PaperPolicies(),
	})
	fmt.Println("webmasters enable Encore by adding one line to their pages:")
	fmt.Printf("  %s\n\n", core.EmbedSnippet(core.SnippetOptions{
		CoordinatorURL: "//" + stack.Infra.CoordinatorDomain,
		CollectorURL:   "//" + stack.Infra.CollectorDomain,
	}))

	// 2. Simulate visits: each visit downloads a measurement task from the
	//    coordination server, executes it in the visitor's browser, and
	//    submits the result to the collection server.
	start := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		for _, region := range []geo.CountryCode{"PK", "US", "DE"} {
			if _, err := stack.Population.SimulateVisit(region, start.Add(time.Duration(i)*time.Minute)); err != nil {
				log.Fatal(err)
			}
		}
	}
	stats := stack.Store.Stats()
	fmt.Printf("collected %d measurements from %d clients in %d countries\n\n",
		stats.Measurements, stats.DistinctClients, stats.Countries)

	// 3. Run the detection algorithm: a one-sided binomial test per
	//    resource and region, confirmed against other regions.
	detector := inference.New(inference.DefaultConfig())
	verdicts := detector.DetectIncremental(stack.Aggregator)
	fmt.Print(inference.Report(verdicts))

	for _, v := range inference.Filtered(verdicts) {
		fmt.Printf("-> %s appears filtered in %s (success rate %.0f%%)\n",
			v.PatternKey, v.Region, 100*v.SuccessRate())
	}
}
