// Domain-filtering campaign: reproduces the measurement study of §7.2.
//
// A seven-month campaign of origin-page visits from around the world measures
// the reachability of youtube.com, twitter.com, and facebook.com with the
// image task type. The detection algorithm should confirm the paper's
// findings: YouTube filtered in Pakistan, Iran, and China; Twitter and
// Facebook filtered in China and Iran; and no filtering detected elsewhere.
//
// Run with: go run ./examples/domainfiltering
package main

import (
	"fmt"
	"time"

	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/inference"
	"encore/internal/targets"
)

func main() {
	stack := clientsim.BuildStack(clientsim.StackConfig{
		Seed:    2015,
		Censor:  censor.PaperPolicies(),
		Targets: targets.MeasurementStudyList(),
	})

	fmt.Println("ground-truth censorship policies installed in the simulator:")
	fmt.Print(stack.Censor.Summary())
	fmt.Println()

	campaign := stack.Population.RunCampaign(clientsim.CampaignConfig{
		Visits:   6000,
		Start:    time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Duration: 7 * 30 * 24 * time.Hour,
	})
	fmt.Printf("campaign: %s\n", campaign)

	stats := stack.Store.Stats()
	fmt.Printf("measurements: %d from %d distinct IPs in %d countries\n",
		stats.Measurements, stats.DistinctClients, stats.Countries)
	fmt.Println("top reporting countries:")
	for _, c := range stats.TopCountries(10) {
		fmt.Printf("  %-3s %6d\n", c, stats.ByCountry[c])
	}
	fmt.Println()

	detector := inference.New(inference.DefaultConfig())
	verdicts := detector.DetectIncremental(stack.Aggregator)
	fmt.Print(inference.Report(verdicts))

	conf := inference.Score(verdicts, stack.GroundTruth(), inference.DefaultConfig().MinMeasurements)
	fmt.Printf("\nagainst ground truth: %d true positives, %d false positives, %d false negatives (precision %.2f, recall %.2f)\n",
		conf.TruePositives, conf.FalsePositives, conf.FalseNegatives, conf.Precision(), conf.Recall())

	fmt.Println("\npaper §7.2 expects: youtube.com filtered in PK, IR, CN; twitter.com and facebook.com filtered in CN and IR.")
}
