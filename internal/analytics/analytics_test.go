package analytics

import (
	"strings"
	"testing"

	"encore/internal/geo"
)

func TestGeneratePilotShape(t *testing.T) {
	g := geo.NewRegistry(1)
	visits := GeneratePilot(7, g)
	if len(visits) != 1171 {
		t.Fatalf("generated %d visits, want 1171", len(visits))
	}
	for i := 1; i < len(visits); i++ {
		if visits[i].Time.Before(visits[i-1].Time) {
			t.Fatal("visits not sorted by time")
		}
	}
	for _, v := range visits {
		if v.Country == "" || v.DwellSeconds <= 0 {
			t.Fatalf("visit incomplete: %+v", v)
		}
		if v.Automated && v.RanTask {
			t.Fatal("automated visits must not run tasks")
		}
	}
}

func TestGeneratePilotDeterministic(t *testing.T) {
	g := geo.NewRegistry(1)
	a := GeneratePilot(5, g)
	b := GeneratePilot(5, g)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Country != b[i].Country || a[i].DwellSeconds != b[i].DwellSeconds {
			t.Fatalf("visit %d differs between runs", i)
		}
	}
}

func TestAnalyzeMatchesPaperDemographics(t *testing.T) {
	g := geo.NewRegistry(1)
	visits := GeneratePilot(11, g)
	r := Analyze(visits, g)

	if r.Visits != 1171 {
		t.Fatalf("Visits=%d", r.Visits)
	}
	// §6.2: "999 attempted to run a measurement task" — i.e. the large
	// majority; allow a generous band.
	if r.RanTask < 800 || r.RanTask > 1100 {
		t.Fatalf("RanTask=%d, want ~999", r.RanTask)
	}
	// "more than 10 users from 10 other countries"
	if r.CountriesOver10 < 5 {
		t.Fatalf("only %d countries with >=10 visitors", r.CountriesOver10)
	}
	// "16%% of visitors reside in countries with well-known Web filtering
	// policies" — band 8-35%%.
	if r.FilteringFraction < 0.08 || r.FilteringFraction > 0.40 {
		t.Fatalf("FilteringFraction=%.2f, want roughly 0.16", r.FilteringFraction)
	}
	// "45%% of visitors remained on the page for longer than 10 seconds"
	if r.DwellOver10s < 0.35 || r.DwellOver10s > 0.60 {
		t.Fatalf("DwellOver10s=%.2f, want ~0.45", r.DwellOver10s)
	}
	// "35%% of visitors who remained for longer than a minute"
	if r.DwellOver60s < 0.25 || r.DwellOver60s > 0.45 {
		t.Fatalf("DwellOver60s=%.2f, want ~0.35", r.DwellOver60s)
	}
	if r.DwellOver60s > r.DwellOver10s {
		t.Fatal("dwell fractions inconsistent")
	}
	// Most visits come from the home country.
	if r.ByCountry["US"] < r.Visits/3 {
		t.Fatalf("US visits=%d, expected a majority-ish share", r.ByCountry["US"])
	}
	s := r.String()
	if !strings.Contains(s, "pilot:") || !strings.Contains(s, "countries") {
		t.Fatalf("report string malformed: %q", s)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	g := geo.NewRegistry(1)
	r := Analyze(nil, g)
	if r.Visits != 0 || r.FilteringFraction != 0 {
		t.Fatalf("empty analysis should be zero: %+v", r)
	}
}

func TestGeneratePilotDefaults(t *testing.T) {
	g := geo.NewRegistry(1)
	visits := GeneratePilot(3, g)
	if len(visits) != 1171 {
		t.Fatalf("the pilot should have 1171 visits, got %d", len(visits))
	}
}

func TestExpectedMeasurementsPerDay(t *testing.T) {
	g := geo.NewRegistry(1)
	r := Analyze(GeneratePilot(13, g), g)
	got := ExpectedMeasurementsPerDay(1000, r, 1.5)
	if got <= 0 || got > 1500 {
		t.Fatalf("ExpectedMeasurementsPerDay=%v", got)
	}
	if ExpectedMeasurementsPerDay(1000, PilotReport{}, 1.5) != 0 {
		t.Fatal("empty report should yield zero")
	}
}
