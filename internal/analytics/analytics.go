// Package analytics reproduces the pilot-study analysis of §6.2: the paper
// examines one month of Google Analytics data for a professor's home page
// (1,171 visits) to argue that even a modest academic page receives visitors
// from enough countries — including countries with well-known filtering
// policies — and that visitors stay on the page long enough to run
// measurement tasks. Google Analytics data is unavailable, so this package
// generates a synthetic visit log calibrated to the reported demographics and
// provides the analysis that produces the paper's numbers.
package analytics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/stats"
)

// Visit is one page view of an Encore-hosting origin page.
type Visit struct {
	Time    time.Time
	Country geo.CountryCode
	Browser core.BrowserFamily
	// DwellSeconds is how long the visitor stayed on the page.
	DwellSeconds float64
	// Automated marks traffic from crawlers and security scanners, which
	// never runs measurement tasks (the paper confirmed "nearly all of the
	// rest to be automated traffic from our campus' security scanner").
	Automated bool
	// RanTask reports whether the visit executed at least one measurement
	// task.
	RanTask bool
}

// The synthetic pilot mirrors the February 2014 pilot.
const (
	// pilotVisits is the total page views in the month; the paper saw 1,171.
	pilotVisits = 1171
	// homeCountry is where most visitors come from (a US university page).
	homeCountry geo.CountryCode = "US"
	// homeFraction is the fraction of visits from the home country.
	homeFraction = 0.55
	// automatedFraction is the fraction of automated (bot) visits; the
	// paper attributes 1,171-999 ≈ 15% to scanners.
	automatedFraction = 0.15
)

// GeneratePilot produces a synthetic month of visits (February 2014) matching
// the pilot's demographics: mostly home-country visitors, a long tail of other
// countries drawn by Internet population, dwell times such that roughly 45%
// exceed 10 seconds and 35% exceed a minute.
func GeneratePilot(seed uint64, registry *geo.Registry) []Visit {
	rng := stats.NewRNG(seed)
	start := time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)
	visits := make([]Visit, 0, pilotVisits)
	monthSeconds := 28 * 24 * 3600.0
	for i := 0; i < pilotVisits; i++ {
		country := homeCountry
		if !rng.Bool(homeFraction) {
			country = registry.SampleCountry(rng)
		}
		automated := rng.Bool(automatedFraction)
		dwell := sampleDwellSeconds(rng)
		if automated {
			dwell = 1 + rng.Float64()*3
		}
		v := Visit{
			Time:         start.Add(time.Duration(rng.Float64()*monthSeconds) * time.Second),
			Country:      country,
			Browser:      sampleBrowser(rng),
			DwellSeconds: dwell,
			Automated:    automated,
		}
		// A visit runs a task if it is human and stays long enough for the
		// asynchronous task to start (a couple of seconds).
		v.RanTask = !v.Automated && v.DwellSeconds >= 2
		visits = append(visits, v)
	}
	sort.Slice(visits, func(i, j int) bool { return visits[i].Time.Before(visits[j].Time) })
	return visits
}

// sampleDwellSeconds draws a dwell time whose distribution matches §6.2:
// roughly 45% of visitors stay longer than 10 seconds and 35% longer than a
// minute.
func sampleDwellSeconds(rng *stats.RNG) float64 {
	u := rng.Float64()
	switch {
	case u < 0.55:
		// Bounce or short read: 1-10 seconds.
		return 1 + 9*rng.Float64()
	case u < 0.65:
		// Medium engagement: 10-60 seconds.
		return 10 + 50*rng.Float64()
	default:
		// Long engagement: 1-10 minutes.
		return 60 + 540*rng.Float64()
	}
}

func sampleBrowser(rng *stats.RNG) core.BrowserFamily {
	families := core.BrowserFamilies()
	weights := []float64{0.48, 0.18, 0.16, 0.12, 0.06}
	idx := rng.WeightedChoice(weights)
	if idx < 0 || idx >= len(families) {
		return core.BrowserOther
	}
	return families[idx]
}

// PilotReport holds the §6.2 headline numbers.
type PilotReport struct {
	Visits            int
	HumanVisits       int
	RanTask           int
	Countries         int
	CountriesOver10   int
	ByCountry         map[geo.CountryCode]int
	FilteringFraction float64
	DwellOver10s      float64
	DwellOver60s      float64
}

// Analyze computes the pilot report from a visit log.
func Analyze(visits []Visit, registry *geo.Registry) PilotReport {
	r := PilotReport{ByCountry: make(map[geo.CountryCode]int)}
	filtering := make(map[geo.CountryCode]bool)
	for _, c := range registry.FilteringCountries() {
		filtering[c] = true
	}
	var over10, over60, fromFiltering int
	for _, v := range visits {
		r.Visits++
		r.ByCountry[v.Country]++
		if !v.Automated {
			r.HumanVisits++
		}
		if v.RanTask {
			r.RanTask++
		}
		if v.DwellSeconds > 10 {
			over10++
		}
		if v.DwellSeconds > 60 {
			over60++
		}
		if filtering[v.Country] {
			fromFiltering++
		}
	}
	r.Countries = len(r.ByCountry)
	for _, n := range r.ByCountry {
		if n >= 10 {
			r.CountriesOver10++
		}
	}
	if r.Visits > 0 {
		r.FilteringFraction = float64(fromFiltering) / float64(r.Visits)
		r.DwellOver10s = float64(over10) / float64(r.Visits)
		r.DwellOver60s = float64(over60) / float64(r.Visits)
	}
	return r
}

// String renders the report in the style of §6.2.
func (r PilotReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pilot: %d visits, %d human, %d ran a measurement task\n", r.Visits, r.HumanVisits, r.RanTask)
	fmt.Fprintf(&b, "pilot: %d countries observed, %d with >=10 visitors\n", r.Countries, r.CountriesOver10)
	fmt.Fprintf(&b, "pilot: %.0f%% of visits from countries with well-known filtering policies\n", 100*r.FilteringFraction)
	fmt.Fprintf(&b, "pilot: %.0f%% stayed >10s, %.0f%% stayed >60s\n", 100*r.DwellOver10s, 100*r.DwellOver60s)
	return b.String()
}

// ExpectedMeasurementsPerDay estimates how many measurements a site with the
// given daily visit count would contribute, given the fraction of visitors
// who run at least one task and the average tasks an engaged visitor runs.
func ExpectedMeasurementsPerDay(dailyVisits int, report PilotReport, tasksPerEngagedVisitor float64) float64 {
	if report.Visits == 0 {
		return 0
	}
	taskRate := float64(report.RanTask) / float64(report.Visits)
	return float64(dailyVisits) * taskRate * tasksPerEngagedVisitor
}
