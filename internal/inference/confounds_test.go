package inference

import (
	"fmt"
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
)

// addCell inserts completed measurements for one pattern/region cell with the
// given per-browser outcomes.
func addCell(store *results.Store, pattern string, region geo.CountryCode, browser core.BrowserFamily, taskType core.TaskType, successes, failures int) {
	base := store.Len()
	for i := 0; i < successes; i++ {
		_ = store.Add(results.Measurement{
			MeasurementID: fmt.Sprintf("m%d", base+i),
			PatternKey:    pattern, Region: region, Browser: browser, TaskType: taskType,
			State: core.StateSuccess,
		})
	}
	for i := 0; i < failures; i++ {
		_ = store.Add(results.Measurement{
			MeasurementID: fmt.Sprintf("m%d", base+successes+i),
			PatternKey:    pattern, Region: region, Browser: browser, TaskType: taskType,
			State: core.StateFailure,
		})
	}
}

func TestCheckConfoundsFlagsBrowserConcentration(t *testing.T) {
	// youtube.com "fails" in India, but only from IE clients running the
	// stylesheet task; Chrome and Firefox load it fine. The cell still
	// fails the binomial test, but the confound check must warn.
	store := results.NewStore()
	addCell(store, "domain:youtube.com", "IN", core.BrowserIE, core.TaskStylesheet, 0, 30)
	addCell(store, "domain:youtube.com", "IN", core.BrowserChrome, core.TaskImage, 12, 0)
	addCell(store, "domain:youtube.com", "IN", core.BrowserFirefox, core.TaskImage, 10, 1)
	addCell(store, "domain:youtube.com", "US", core.BrowserChrome, core.TaskImage, 30, 0)

	d := New(DefaultConfig())
	verdicts := d.Detect(results.Aggregate(store.All()))
	if !FilteredSet(verdicts)["domain:youtube.com|IN"] {
		t.Fatal("sanity: the cell should be flagged by the plain detector")
	}
	warnings := CheckConfounds(results.Aggregate(store.All()), verdicts)
	if len(warnings) == 0 {
		t.Fatal("expected a confound warning")
	}
	foundBrowser := false
	for _, w := range warnings {
		if w.Dimension == "browser" && w.Slice == "ie" {
			foundBrowser = true
			if w.FailureShare < 0.9 || w.ObservedSuccessElsewhere < 0.8 {
				t.Fatalf("warning thresholds look wrong: %+v", w)
			}
		}
	}
	if !foundBrowser {
		t.Fatalf("no browser-dimension warning: %+v", warnings)
	}
	report := ConfoundReport(warnings)
	if !strings.Contains(report, "possible client-side confound") {
		t.Fatalf("report missing explanation:\n%s", report)
	}
}

func TestCheckConfoundsQuietOnGenuineFiltering(t *testing.T) {
	// Genuine filtering hits every browser and task type; no warning.
	store := results.NewStore()
	addCell(store, "domain:twitter.com", "CN", core.BrowserChrome, core.TaskImage, 1, 20)
	addCell(store, "domain:twitter.com", "CN", core.BrowserFirefox, core.TaskImage, 0, 15)
	addCell(store, "domain:twitter.com", "CN", core.BrowserSafari, core.TaskStylesheet, 1, 10)
	addCell(store, "domain:twitter.com", "US", core.BrowserChrome, core.TaskImage, 30, 0)

	d := New(DefaultConfig())
	verdicts := d.Detect(results.Aggregate(store.All()))
	if !FilteredSet(verdicts)["domain:twitter.com|CN"] {
		t.Fatal("sanity: genuine filtering should be flagged")
	}
	warnings := CheckConfounds(results.Aggregate(store.All()), verdicts)
	if len(warnings) != 0 {
		t.Fatalf("genuine filtering should not warn: %+v", warnings)
	}
	if !strings.Contains(ConfoundReport(nil), "no client-side confounds") {
		t.Fatal("empty report text wrong")
	}
}

func TestCheckConfoundsZeroConfigUsesDefaults(t *testing.T) {
	store := results.NewStore()
	addCell(store, "domain:a.com", "CN", core.BrowserChrome, core.TaskImage, 0, 10)
	addCell(store, "domain:a.com", "US", core.BrowserChrome, core.TaskImage, 10, 0)
	d := New(DefaultConfig())
	verdicts := d.Detect(results.Aggregate(store.All()))
	// Single-browser cells cannot be attributed either way: no warnings.
	if got := CheckConfounds(results.Aggregate(store.All()), verdicts); len(got) != 0 {
		t.Fatalf("unexpected warnings: %+v", got)
	}
}
