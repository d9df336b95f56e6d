package inference

import (
	"fmt"
	"strings"
	"testing"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
	"encore/internal/stats"
)

// makeGroups builds aggregated groups from (pattern, region, successes,
// failures) tuples.
func makeGroups(rows ...[4]interface{}) []results.Group {
	var ms []results.Measurement
	id := 0
	for _, r := range rows {
		pattern := r[0].(string)
		region := geo.CountryCode(r[1].(string))
		successes := r[2].(int)
		failures := r[3].(int)
		for i := 0; i < successes; i++ {
			id++
			ms = append(ms, results.Measurement{MeasurementID: fmt.Sprintf("m%d", id), PatternKey: pattern,
				Region: region, State: core.StateSuccess, Browser: core.BrowserChrome})
		}
		for i := 0; i < failures; i++ {
			id++
			ms = append(ms, results.Measurement{MeasurementID: fmt.Sprintf("m%d", id), PatternKey: pattern,
				Region: region, State: core.StateFailure, Browser: core.BrowserChrome})
		}
	}
	return results.Aggregate(ms)
}

func TestDetectsFilteringWithCrossRegionConfirmation(t *testing.T) {
	d := New(DefaultConfig())
	groups := makeGroups(
		[4]interface{}{"domain:youtube.com", "PK", 1, 29}, // heavily failing in Pakistan
		[4]interface{}{"domain:youtube.com", "US", 48, 2}, // fine in the US
		[4]interface{}{"domain:youtube.com", "DE", 30, 1}, // fine in Germany
	)
	verdicts := d.Detect(groups)
	set := FilteredSet(verdicts)
	if !set["domain:youtube.com|PK"] {
		t.Fatal("Pakistan filtering of youtube.com not detected")
	}
	if set["domain:youtube.com|US"] || set["domain:youtube.com|DE"] {
		t.Fatal("unfiltered regions flagged")
	}
}

func TestNoDetectionWhenSiteDownEverywhere(t *testing.T) {
	// A site that fails everywhere is down, not filtered: there is no
	// region where it is accessible, so nothing may be flagged.
	d := New(DefaultConfig())
	groups := makeGroups(
		[4]interface{}{"domain:dead.com", "PK", 0, 20},
		[4]interface{}{"domain:dead.com", "US", 1, 40},
		[4]interface{}{"domain:dead.com", "DE", 0, 15},
	)
	if f := Filtered(d.Detect(groups)); len(f) != 0 {
		t.Fatalf("globally dead site flagged as filtered: %+v", f)
	}
}

func TestNoDetectionWithSparseData(t *testing.T) {
	d := New(DefaultConfig())
	groups := makeGroups(
		[4]interface{}{"domain:x.com", "PK", 0, 2}, // only two measurements
		[4]interface{}{"domain:x.com", "US", 30, 0},
	)
	if f := Filtered(d.Detect(groups)); len(f) != 0 {
		t.Fatalf("two failing measurements should not be enough: %+v", f)
	}
}

func TestNoDetectionAtNormalFailureRates(t *testing.T) {
	d := New(DefaultConfig())
	// 85% success everywhere: above the 0.7 null rate, no detection.
	groups := makeGroups(
		[4]interface{}{"domain:y.com", "IN", 85, 15},
		[4]interface{}{"domain:y.com", "US", 90, 10},
	)
	if f := Filtered(d.Detect(groups)); len(f) != 0 {
		t.Fatalf("normal failure rates flagged: %+v", f)
	}
}

func TestBorderlineIndiaFalsePositiveRateControlledByTest(t *testing.T) {
	// India's 5% image false positive rate (§7.1) must not trigger
	// detection: 95/100 successes is way above the p=0.7 null.
	d := New(DefaultConfig())
	groups := makeGroups(
		[4]interface{}{"domain:z.com", "IN", 95, 5},
		[4]interface{}{"domain:z.com", "US", 99, 1},
	)
	if f := Filtered(d.Detect(groups)); len(f) != 0 {
		t.Fatalf("5%% failure rate flagged: %+v", f)
	}
}

func TestVerdictFieldsAndOrdering(t *testing.T) {
	d := New(DefaultConfig())
	groups := makeGroups(
		[4]interface{}{"domain:b.com", "US", 20, 0},
		[4]interface{}{"domain:a.com", "US", 20, 0},
		[4]interface{}{"domain:a.com", "CN", 0, 20},
	)
	verdicts := d.Detect(groups)
	if len(verdicts) != 3 {
		t.Fatalf("got %d verdicts", len(verdicts))
	}
	if verdicts[0].PatternKey != "domain:a.com" || verdicts[0].Region != "CN" {
		t.Fatalf("verdicts not sorted: %+v", verdicts[0])
	}
	cn := verdicts[0]
	if !cn.RejectsNull || !cn.AccessibleElsewhere || !cn.Filtered {
		t.Fatalf("CN verdict wrong: %+v", cn)
	}
	if cn.SuccessRate() != 0 {
		t.Fatalf("success rate=%v", cn.SuccessRate())
	}
	if cn.PValue > 0.05 {
		t.Fatalf("p-value=%v", cn.PValue)
	}
	empty := Verdict{}
	if empty.SuccessRate() != 1 {
		t.Fatal("empty verdict success rate should be 1")
	}
}

func TestDetectIncrementalExcludesControls(t *testing.T) {
	store := results.NewStore()
	agg := results.NewAggregator(results.AggregatorConfig{})
	store.AddObserver(agg)
	for i := 0; i < 20; i++ {
		_ = store.Add(results.Measurement{MeasurementID: fmt.Sprintf("c%d", i), PatternKey: "domain:testbed",
			Region: "CN", State: core.StateFailure, Control: true})
	}
	for i := 0; i < 20; i++ {
		_ = store.Add(results.Measurement{MeasurementID: fmt.Sprintf("r%d", i), PatternKey: "domain:real.com",
			Region: "CN", State: core.StateSuccess})
	}
	d := New(DefaultConfig())
	verdicts := d.DetectIncremental(agg)
	for _, v := range verdicts {
		if v.PatternKey == "domain:testbed" {
			t.Fatal("control measurements leaked into detection")
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	d := New(Config{})
	cfg := d.Config()
	if cfg.Test.P != 0.7 || cfg.Test.Alpha != 0.05 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.MinMeasurements <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestCustomTestParameters(t *testing.T) {
	strict := New(Config{Test: stats.BinomialTest{P: 0.9, Alpha: 0.01}, MinMeasurements: 3})
	lax := New(Config{Test: stats.BinomialTest{P: 0.5, Alpha: 0.01}, MinMeasurements: 3})
	groups := makeGroups(
		[4]interface{}{"domain:q.com", "TR", 12, 8}, // 60% success
		[4]interface{}{"domain:q.com", "US", 20, 0},
	)
	if len(Filtered(strict.Detect(groups))) == 0 {
		t.Fatal("p=0.9 test should flag a 60% success rate")
	}
	if len(Filtered(lax.Detect(groups))) != 0 {
		t.Fatal("p=0.5 test should not flag a 60% success rate")
	}
}

func TestReportRendering(t *testing.T) {
	d := New(DefaultConfig())
	groups := makeGroups(
		[4]interface{}{"domain:youtube.com", "IR", 0, 25},
		[4]interface{}{"domain:youtube.com", "US", 25, 0},
	)
	rpt := Report(d.Detect(groups))
	if !strings.Contains(rpt, "youtube.com") || !strings.Contains(rpt, "IR") {
		t.Fatalf("report missing detection:\n%s", rpt)
	}
	if !strings.Contains(rpt, "Coverage:") {
		t.Fatal("report missing coverage")
	}
}

func TestScore(t *testing.T) {
	d := New(DefaultConfig())
	groups := makeGroups(
		[4]interface{}{"domain:youtube.com", "PK", 0, 30},
		[4]interface{}{"domain:youtube.com", "US", 30, 0},
		[4]interface{}{"domain:twitter.com", "PK", 28, 2},
		[4]interface{}{"domain:twitter.com", "US", 30, 0},
	)
	verdicts := d.Detect(groups)
	truth := func(pattern string, region geo.CountryCode) bool {
		return pattern == "domain:youtube.com" && region == "PK"
	}
	c := Score(verdicts, truth, 5)
	if c.TruePositives != 1 || c.FalsePositives != 0 || c.FalseNegatives != 0 || c.TrueNegatives != 3 {
		t.Fatalf("confusion=%+v", c)
	}
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Fatalf("precision=%v recall=%v", c.Precision(), c.Recall())
	}
	var zero Confusion
	if zero.Precision() != 1 || zero.Recall() != 1 {
		t.Fatal("empty confusion should default to 1")
	}
}
