package inference

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
	"encore/internal/stats"
)

const week = 7 * 24 * time.Hour

// weeklyAggregator returns a store feeding an aggregator whose weekly window
// grid starts at start.
func weeklyAggregator(start time.Time) (*results.Store, *results.Aggregator) {
	store := results.NewStore()
	agg := results.NewAggregator(results.AggregatorConfig{Window: week, Epoch: start})
	store.AddObserver(agg)
	return store, agg
}

// buildLongitudinalStore creates an aggregated store in which twitter.com
// starts unfiltered in Turkey and becomes filtered halfway through the
// observation period, while remaining reachable from the US throughout.
func buildLongitudinalStore(t *testing.T) (*results.Aggregator, time.Time) {
	t.Helper()
	start := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	store, agg := weeklyAggregator(start)
	id := 0
	add := func(region string, success bool, day int) {
		id++
		state := core.StateSuccess
		if !success {
			state = core.StateFailure
		}
		err := store.Add(results.Measurement{
			MeasurementID: fmt.Sprintf("m%d", id),
			PatternKey:    "domain:twitter.com",
			State:         state,
			Region:        geo.CountryCode(region),
			Browser:       core.BrowserChrome,
			Received:      start.Add(time.Duration(day) * 24 * time.Hour),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for day := 0; day < 28; day++ {
		// Turkey blocks Twitter from day 14 (the March 2014 Twitter ban).
		add("TR", day < 14, day)
		add("TR", day < 14, day)
		add("US", true, day)
		add("US", true, day)
	}
	return agg, start
}

func TestDetectWindowsFindsOnset(t *testing.T) {
	agg, start := buildLongitudinalStore(t)
	d := New(Config{MinMeasurements: 3})
	windows := d.DetectWindows(agg, week)
	if len(windows) != 4 {
		t.Fatalf("got %d windows, want 4", len(windows))
	}
	// Weeks 1-2: no filtering; weeks 3-4: TR flagged.
	for i, wv := range windows {
		flagged := FilteredSet(wv.Verdicts)
		trFiltered := flagged["domain:twitter.com|TR"]
		wantFiltered := i >= 2
		if trFiltered != wantFiltered {
			t.Fatalf("window %d: TR filtered=%v, want %v", i, trFiltered, wantFiltered)
		}
		if flagged["domain:twitter.com|US"] {
			t.Fatalf("window %d: US falsely flagged", i)
		}
	}
	transitions := Transitions(windows, 3)
	if len(transitions) != 1 {
		t.Fatalf("got %d transitions, want 1: %+v", len(transitions), transitions)
	}
	tr := transitions[0]
	if tr.Region != "TR" || !tr.FilteredNow {
		t.Fatalf("transition wrong: %+v", tr)
	}
	if tr.At.Before(start.Add(13*24*time.Hour)) || tr.At.After(start.Add(22*24*time.Hour)) {
		t.Fatalf("onset detected at %v, expected around day 14", tr.At)
	}
	report := TimelineReport(windows, 3)
	if !strings.Contains(report, "onset of filtering") || !strings.Contains(report, "TR") {
		t.Fatalf("timeline report missing onset:\n%s", report)
	}
}

func TestTransitionsDetectLifting(t *testing.T) {
	// Reverse scenario: filtering lifted halfway through.
	start := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	store, agg := weeklyAggregator(start)
	id := 0
	add := func(region string, success bool, day int) {
		id++
		state := core.StateSuccess
		if !success {
			state = core.StateFailure
		}
		_ = store.Add(results.Measurement{
			MeasurementID: fmt.Sprintf("m%d", id), PatternKey: "domain:youtube.com", State: state,
			Region: geo.CountryCode(region), Received: start.Add(time.Duration(day) * 24 * time.Hour)})
	}
	for day := 0; day < 14; day++ {
		add("PK", day >= 7, day)
		add("PK", day >= 7, day)
		add("PK", day >= 7, day)
		add("US", true, day)
		add("US", true, day)
		add("US", true, day)
	}
	d := New(Config{MinMeasurements: 3})
	windows := d.DetectWindows(agg, week)
	transitions := Transitions(windows, 3)
	if len(transitions) != 1 || transitions[0].FilteredNow {
		t.Fatalf("expected a single lifting transition, got %+v", transitions)
	}
}

func TestDetectWindowsEmptyStore(t *testing.T) {
	d := New(DefaultConfig())
	_, agg := weeklyAggregator(time.Time{})
	if got := d.DetectWindows(agg, week); len(got) != 0 {
		t.Fatalf("empty store should yield no windows, got %d", len(got))
	}
}

func TestTunedSuppressesLossyRegionFalsePositives(t *testing.T) {
	// A very lossy (but uncensored) region fails 45% of its measurements of
	// every pattern. The default p=0.7 test flags it; a tuned detector
	// that learns the region's baseline must not.
	store := results.NewStore()
	id := 0
	add := func(pattern, region string, success bool) {
		id++
		state := core.StateSuccess
		if !success {
			state = core.StateFailure
		}
		_ = store.Add(results.Measurement{MeasurementID: fmt.Sprintf("m%d", id), PatternKey: pattern,
			State: state, Region: geo.CountryCode(region), Received: time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)})
	}
	for _, pattern := range []string{"domain:a.com", "domain:b.com", "domain:c.com"} {
		for i := 0; i < 100; i++ {
			add(pattern, "NG", i%100 < 55) // 55% success on everything
			add(pattern, "US", i%100 < 97) // healthy elsewhere
		}
	}
	// And one genuinely filtered pattern in NG: near-total failure.
	for i := 0; i < 100; i++ {
		add("domain:blocked.com", "NG", i%100 < 3)
		add("domain:blocked.com", "US", i%100 < 97)
	}

	groups := results.Aggregate(store.All())
	plain := New(DefaultConfig()).Detect(groups)
	plainFlagged := FilteredSet(plain)
	if !plainFlagged["domain:a.com|NG"] {
		t.Fatal("sanity: the untuned detector should false-positive on the lossy region")
	}

	tuned := NewTuned(DefaultConfig(), groups, 0.9)
	if p := tuned.NullProbability("NG"); p >= 0.7 {
		t.Fatalf("NG null probability not tuned down: %v", p)
	}
	if p := tuned.NullProbability("US"); p > 0.7 {
		t.Fatalf("US null probability should not exceed the base: %v", p)
	}
	verdicts := tuned.Detect(groups)
	flagged := FilteredSet(verdicts)
	for _, pattern := range []string{"domain:a.com", "domain:b.com", "domain:c.com"} {
		if flagged[pattern+"|NG"] {
			t.Fatalf("tuned detector still false-positives on %s in NG", pattern)
		}
	}
	if !flagged["domain:blocked.com|NG"] {
		t.Fatal("tuned detector lost the genuine detection")
	}
	if flagged["domain:blocked.com|US"] {
		t.Fatal("tuned detector flagged the US")
	}
}

func TestTunedDefaults(t *testing.T) {
	// With no data, the tuned probability equals the base.
	tuned := NewTuned(DefaultConfig(), nil, -1)
	if p := tuned.NullProbability("US"); p != 0.7 {
		t.Fatalf("no-data null probability=%v, want 0.7", p)
	}
	if got := tuned.Detect(nil); len(got) != 0 {
		t.Fatal("no groups should yield no verdicts")
	}
	// An invalid margin means 0.9: a 50% baseline tunes p to 0.45.
	groups := makeGroups([4]interface{}{"domain:a.com", "NG", 10, 10})
	if p := NewTuned(DefaultConfig(), groups, -1).NullProbability("NG"); math.Abs(p-0.45) > 1e-12 {
		t.Fatalf("invalid margin: NG null probability=%v, want 0.45", p)
	}
	// The tuned probability never drops below the 0.05 floor.
	dead := makeGroups([4]interface{}{"domain:a.com", "NG", 0, 10})
	if p := NewTuned(DefaultConfig(), dead, 0.9).NullProbability("NG"); p != 0.05 {
		t.Fatalf("all-failure region: null probability=%v, want the 0.05 floor", p)
	}
}

// TestTunedBaselineIsRegionMedian checks the per-region baseline: the median
// per-pattern success rate over cells with enough completed measurements, so
// one censored pattern does not drag a region's baseline down. With base
// P = 1 and margin 1 the null probability is the baseline itself.
func TestTunedBaselineIsRegionMedian(t *testing.T) {
	var rows [][4]interface{}
	// India: lossy but uncensored — 80% success on three patterns.
	for _, p := range []string{"domain:a.com", "domain:b.com", "domain:c.com"} {
		rows = append(rows, [4]interface{}{p, "IN", 8, 2})
	}
	// China: one pattern fully censored, two healthy — the median must
	// ignore the censored one. A sparse cell is left out of the baseline.
	rows = append(rows,
		[4]interface{}{"domain:a.com", "CN", 0, 10},
		[4]interface{}{"domain:b.com", "CN", 10, 0},
		[4]interface{}{"domain:c.com", "CN", 10, 0},
		[4]interface{}{"domain:d.com", "PK", 0, 4},
	)
	tuned := NewTuned(Config{Test: stats.BinomialTest{P: 1, Alpha: 0.05}, MinMeasurements: 5}, makeGroups(rows...), 1)
	if got := tuned.NullProbability("IN"); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("IN baseline=%v, want 0.8", got)
	}
	if got := tuned.NullProbability("CN"); got != 1.0 {
		t.Fatalf("CN baseline=%v, want 1.0 (median ignores the censored pattern)", got)
	}
	if got := tuned.NullProbability("PK"); got != 1.0 {
		t.Fatalf("PK baseline=%v, want the base 1.0 (its only cell is sparse)", got)
	}
}
