package inference

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
)

// incFixture returns an observer-attached store/aggregator pair plus a
// deterministic measurement generator producing duplicate IDs (upgrades),
// control traffic, and several patterns and regions.
func incFixture(window time.Duration) (*results.Store, *results.Aggregator, func(i int) results.Measurement) {
	store := results.NewStore()
	agg := results.NewAggregator(results.AggregatorConfig{Window: window})
	store.AddObserver(agg)
	base := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	gen := func(i int) results.Measurement {
		id := i % 300
		state := core.StateInit
		switch {
		case i%5 == 1, i%5 == 3:
			state = core.StateSuccess
		case i%5 == 4:
			state = core.StateFailure
		}
		regions := []geo.CountryCode{"US", "CN", "PK", "IR", "DE", "TR"}
		return results.Measurement{
			MeasurementID: fmt.Sprintf("m%d", id),
			PatternKey:    fmt.Sprintf("domain:site%d.com", id%7),
			State:         state,
			Region:        regions[id%len(regions)],
			Browser:       core.BrowserChrome,
			Control:       id%13 == 0,
			Received:      base.Add(time.Duration(i%500) * time.Minute),
		}
	}
	return store, agg, gen
}

// TestDetectIncrementalMatchesBatch drives commits in batches and checks
// after every batch that the incremental path — which only recomputes
// patterns dirtied since the previous call — returns exactly what a batch
// rescan of the store computes.
func TestDetectIncrementalMatchesBatch(t *testing.T) {
	store, agg, gen := incFixture(0)
	d := New(DefaultConfig())
	i := 0
	for batch := 0; batch < 12; batch++ {
		var ms []results.Measurement
		for n := 0; n < 150; n++ {
			ms = append(ms, gen(i))
			i++
		}
		if _, err := store.AddBatch(ms); err != nil {
			t.Fatal(err)
		}
		inc := d.DetectIncremental(agg)
		batchVerdicts := d.Detect(results.Aggregate(store.All()))
		if !reflect.DeepEqual(inc, batchVerdicts) {
			t.Fatalf("batch %d: incremental and batch verdicts diverge\nincremental=%+v\nbatch=%+v",
				batch, inc, batchVerdicts)
		}
	}
	// A quiescent call (nothing dirty) must return the same cached verdicts.
	again := d.DetectIncremental(agg)
	if !reflect.DeepEqual(again, d.Detect(results.Aggregate(store.All()))) {
		t.Fatal("quiescent incremental call diverged")
	}
}

// TestDetectIncrementalRecomputesOnlyDirtyPatterns checks the caching
// contract: a call with no new commits drains nothing and serves the cache,
// and a commit to one pattern leaves the other patterns' cached verdicts
// intact (compared by value against a full recomputation).
func TestDetectIncrementalRecomputesOnlyDirtyPatterns(t *testing.T) {
	store, agg, gen := incFixture(0)
	d := New(DefaultConfig())
	for i := 0; i < 900; i++ {
		if err := store.Add(gen(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = d.DetectIncremental(agg)
	if got := agg.DirtyPatternCount(); got != 0 {
		t.Fatalf("DetectIncremental left %d dirty patterns", got)
	}

	// Dirty exactly one pattern.
	m := results.Measurement{MeasurementID: "fresh", PatternKey: "domain:site1.com",
		State: core.StateFailure, Region: "CN", Browser: core.BrowserChrome}
	if err := store.Add(m); err != nil {
		t.Fatal(err)
	}
	if got := agg.DirtyPatternCount(); got != 1 {
		t.Fatalf("one commit dirtied %d patterns, want 1", got)
	}
	inc := d.DetectIncremental(agg)
	if !reflect.DeepEqual(inc, d.Detect(results.Aggregate(store.All()))) {
		t.Fatal("dirty-pattern recomputation diverged from batch")
	}
}

// TestDetectIncrementalSwitchesAggregators checks that pointing the same
// detector at a different aggregator discards the cache instead of mixing
// the two data sets.
func TestDetectIncrementalSwitchesAggregators(t *testing.T) {
	store1, agg1, gen := incFixture(0)
	for i := 0; i < 400; i++ {
		_ = store1.Add(gen(i))
	}
	store2 := results.NewStore()
	agg2 := results.NewAggregator(results.AggregatorConfig{})
	store2.AddObserver(agg2)
	_ = store2.Add(results.Measurement{MeasurementID: "only", PatternKey: "domain:other.com",
		State: core.StateSuccess, Region: "US", Browser: core.BrowserChrome})

	d := New(DefaultConfig())
	first := d.DetectIncremental(agg1)
	if len(first) == 0 {
		t.Fatal("first aggregator produced no verdicts")
	}
	second := d.DetectIncremental(agg2)
	if !reflect.DeepEqual(second, d.Detect(results.Aggregate(store2.All()))) {
		t.Fatal("post-switch verdicts diverged from the second store's batch detection")
	}
	if len(second) != 1 || second[0].PatternKey != "domain:other.com" {
		t.Fatalf("post-switch verdicts leaked the first aggregator's patterns: %+v", second)
	}
}

// TestDetectWindowsAggregatedMatchesBatchOnEpochGrid checks the longitudinal
// incremental view: with the aggregator's epoch pinned to the earliest
// measurement, windowed detection over the online buckets equals
// DetectWindows' store rescan exactly.
func TestDetectWindowsAggregatedMatchesBatchOnEpochGrid(t *testing.T) {
	const window = 7 * 24 * time.Hour
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	store := results.NewStore()
	agg := results.NewAggregator(results.AggregatorConfig{Window: window, Epoch: base})
	store.AddObserver(agg)
	id := 0
	add := func(region string, success bool, day int) {
		id++
		state := core.StateSuccess
		if !success {
			state = core.StateFailure
		}
		if err := store.Add(results.Measurement{
			MeasurementID: fmt.Sprintf("m%d", id), PatternKey: "domain:twitter.com", State: state,
			Region: geo.CountryCode(region), Browser: core.BrowserChrome,
			Received: base.Add(time.Duration(day) * 24 * time.Hour)}); err != nil {
			t.Fatal(err)
		}
	}
	for day := 0; day < 28; day++ {
		add("TR", day < 14, day)
		add("TR", day < 14, day)
		add("US", true, day)
		add("US", true, day)
	}
	d := New(Config{MinMeasurements: 3})
	fromAgg := d.DetectWindowsAggregated(agg, window)
	fromStore := d.DetectWindows(store, window)
	if !reflect.DeepEqual(fromAgg, fromStore) {
		t.Fatalf("aggregated windows diverge from batch windows:\nagg=%+v\nstore=%+v", fromAgg, fromStore)
	}
	transitions := Transitions(fromAgg, 3)
	if len(transitions) != 1 || transitions[0].Region != "TR" || !transitions[0].FilteredNow {
		t.Fatalf("windowed incremental detection lost the onset: %+v", transitions)
	}
}
