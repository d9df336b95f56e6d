// Longitudinal detection: the capability that motivates Encore in §1 —
// "measuring censorship requires continual measurement of reachability ...
// censorship varies over time in response to changing social or political
// conditions (e.g., a national election)".
//
// This example simulates the March 2014 Turkish Twitter block: a campaign
// starts with no filtering anywhere, Turkey begins DNS-redirecting
// twitter.com halfway through, and windowed detection localizes the onset to
// the correct week. It also demonstrates the per-country tuned detector (the
// §7.2 enhancement) suppressing false positives from a chronically lossy
// region.
//
// Run with: go run ./examples/longitudinal
package main

import (
	"fmt"
	"time"

	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/results"
)

func main() {
	// Start with an empty censor: nothing is filtered anywhere.
	eng := censor.NewEngine()
	stack := clientsim.BuildStack(clientsim.StackConfig{Seed: 2014, Censor: eng})

	start := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	regions := []geo.CountryCode{"TR", "TR", "US", "DE", "GB", "NG"}

	fmt.Println("phase 1: two weeks, no filtering anywhere")
	stack.Population.RunCampaign(clientsim.CampaignConfig{
		Visits:   1500,
		Start:    start,
		Duration: 14 * 24 * time.Hour,
		Regions:  regions,
	})

	fmt.Println("phase 2: Turkey orders twitter.com blocked (DNS redirection); two more weeks")
	tr := &censor.Policy{Region: "TR"}
	tr.AddDomain("twitter.com", censor.MechanismDNSRedirect, "court order, March 2014")
	eng.SetPolicy(tr)
	stack.Population.RunCampaign(clientsim.CampaignConfig{
		Visits:   1500,
		Start:    start.Add(14 * 24 * time.Hour),
		Duration: 14 * 24 * time.Hour,
		Regions:  regions,
	})

	// Fold the campaign into an aggregator whose weekly grid starts on the
	// campaign's first day, so each window is one week of the campaign.
	const week = 7 * 24 * time.Hour
	agg := results.NewAggregator(results.AggregatorConfig{Window: week, Epoch: start})
	agg.Backfill(stack.Store)
	groups := agg.Groups()

	detector := inference.New(inference.DefaultConfig())
	windows := detector.DetectWindows(agg, week)
	fmt.Println("\nweekly detection timeline:")
	fmt.Print(inference.TimelineReport(windows, inference.DefaultConfig().MinMeasurements))

	fmt.Println("\nper-country tuned detection (the §7.2 enhancement):")
	tuned := inference.NewTuned(inference.DefaultConfig(), groups, 0.9)
	for _, region := range []geo.CountryCode{"US", "TR", "NG"} {
		fmt.Printf("  tuned null success probability for %s: %.2f\n", region, tuned.NullProbability(region))
	}
	plain := inference.Filtered(detector.Detect(groups))
	adjusted := inference.Filtered(tuned.Detect(groups))
	fmt.Printf("  detections with the fixed p=0.7 test: %d; with per-country tuning: %d\n", len(plain), len(adjusted))
	for _, v := range adjusted {
		fmt.Printf("    %s filtered in %s (%d/%d successes)\n", v.PatternKey, v.Region, v.Successes, v.Completed)
	}
}
