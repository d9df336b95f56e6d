// Pilot study: reproduces the deployment-feasibility analysis of §6.
//
// Three questions from the paper:
//
//  1. §6.2 Who performs Encore measurements? — analyze a month of visits to a
//     professor's home page: country mix, dwell times, and the fraction of
//     visitors who run a measurement task.
//  2. §6.3 Will webmasters install Encore? — measure the byte overhead the
//     embed snippet adds to an origin page.
//  3. §1/§2 motivation — compare the vantage-point coverage Encore obtains by
//     recruiting a handful of webmasters with the coverage a custom-software
//     prober obtains from the same recruitment effort.
//
// Run with: go run ./examples/pilotstudy
package main

import (
	"fmt"
	"time"

	"encore/internal/analytics"
	"encore/internal/baseline"
	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/originserver"
	"encore/internal/stats"
)

func main() {
	g := geo.NewRegistry(2014)

	// --- §6.2: who performs Encore measurements? ---
	visits := analytics.GeneratePilot(2014, g)
	report := analytics.Analyze(visits, g)
	fmt.Println("§6.2 pilot demographics (one month, professor's home page):")
	fmt.Print(report.String())
	fmt.Printf("expected measurements/day if the site drew 1,000 daily visits: %.0f\n\n",
		analytics.ExpectedMeasurementsPerDay(1000, report, 1.5))

	// --- §6.3: will webmasters install Encore? ---
	snippet := core.SnippetOptions{
		CoordinatorURL: "//coordinator.encore-project.org",
		CollectorURL:   "//collector.encore-project.org",
	}
	origin := originserver.New("professor.example.edu", snippet)
	page := origin.Pages()["/"]
	fmt.Println("§6.3 webmaster overhead:")
	fmt.Printf("  embed snippet: %q\n", core.EmbedSnippet(snippet))
	fmt.Printf("  bytes added per origin page: %d\n", origin.PageOverheadBytes(page))
	fmt.Printf("  extra requests to the origin server: 0 (the snippet points clients at the coordinator)\n\n")

	// --- Coverage comparison with a custom-software prober ---
	stack := clientsim.BuildStack(clientsim.StackConfig{Seed: 2014, Censor: censor.PaperPolicies()})
	campaign := stack.Population.RunCampaign(clientsim.CampaignConfig{
		Visits: 3000,
		Start:  time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
	})
	var encoreRegions []geo.CountryCode
	for region := range campaign.ByRegion {
		encoreRegions = append(encoreRegions, region)
	}
	encoreCoverage := baseline.CoverageOf(encoreRegions, g)

	model := baseline.DefaultRecruitmentModel(g)
	rng := stats.NewRNG(2014)
	const contacts = 3000 // same "effort": one contact per simulated visit
	volunteers := model.Recruit(contacts, rng)
	var directRegions []geo.CountryCode
	for _, v := range volunteers {
		directRegions = append(directRegions, v.Region)
	}
	directCoverage := baseline.CoverageOf(directRegions, g)

	cmp := baseline.Comparison{
		RecruitmentContacts: contacts,
		DirectVolunteers:    len(volunteers),
		DirectCoverage:      directCoverage,
		EncoreClients:       stack.Store.Stats().DistinctClients,
		EncoreCoverage:      encoreCoverage,
	}
	fmt.Println("vantage-point coverage, Encore vs custom-software probes:")
	fmt.Printf("  %s\n", cmp)
	fmt.Printf("  encore covers %d filtering countries; direct probes cover %d\n",
		encoreCoverage.FilteringCountries, directCoverage.FilteringCountries)
}
