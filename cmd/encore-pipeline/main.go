// Command encore-pipeline runs the measurement task generation pipeline
// (§5.2, Figure 3) over a target list and prints the feasibility analysis
// behind Figures 4-6: how many (small) images each domain hosts, how heavy
// pages are, and how many pages qualify for the iframe mechanism.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"encore/internal/pipeline"
	"encore/internal/targets"
	"encore/internal/webgen"
)

func main() {
	var (
		targetsPath = flag.String("targets", "", "path to a target list file; defaults to the built-in Herdict-style high-value list")
		seed        = flag.Uint64("seed", 1, "seed for the synthetic Web")
		points      = flag.Int("points", 20, "number of points per rendered CDF")
	)
	flag.Parse()

	list := targets.HerdictHighValue()
	if *targetsPath != "" {
		var err error
		if list, err = targets.ReadFile(*targetsPath, "file"); err != nil {
			log.Fatalf("reading target list: %v", err)
		}
	}
	fmt.Print(list.Summary())

	start := time.Now()
	gen, err := pipeline.Generate(pipeline.GenerateConfig{Web: webgen.DefaultConfig(*seed), Targets: list,
		GeoSeed: *seed, NetSeed: *seed, FetcherSeed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	report := gen.Report
	fmt.Printf("pipeline finished in %v: %s\n\n", time.Since(start).Round(time.Millisecond), report.Summary())

	for _, fig := range report.Figures(*points) {
		fmt.Println(fig.Render())
	}

	fmt.Printf("domains measurable with <=1KB images: %.0f%%\n", 100*report.FractionOfDomainsMeasurable(1024))
	fmt.Printf("domains measurable with <=5KB images: %.0f%%\n", 100*report.FractionOfDomainsMeasurable(5*1024))
	fmt.Printf("pages iframe-measurable at <=100KB:   %.0f%%\n", 100*report.FractionOfPagesIFrameMeasurable(100))
	fmt.Printf("task candidates by type: %v\n", report.Tasks.CountByType())
}
