package results

import (
	"fmt"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
)

func measurementAt(id string, pattern string, region string, success bool, at time.Time) Measurement {
	state := core.StateSuccess
	if !success {
		state = core.StateFailure
	}
	return Measurement{
		MeasurementID: id,
		PatternKey:    pattern,
		State:         state,
		Region:        geo.CountryCode(region),
		Browser:       core.BrowserChrome,
		Received:      at,
	}
}

func TestAggregateWindowedAt(t *testing.T) {
	start := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	var ms []Measurement
	// First week: successes; third week: failures.
	for i := 0; i < 10; i++ {
		ms = append(ms, measurementAt(fmt.Sprintf("a%d", i), "domain:x.com", "TR", true, start.Add(time.Duration(i)*time.Hour)))
	}
	for i := 0; i < 10; i++ {
		ms = append(ms, measurementAt(fmt.Sprintf("b%d", i), "domain:x.com", "TR", false, start.Add(15*24*time.Hour).Add(time.Duration(i)*time.Hour)))
	}
	windows := AggregateWindowedAt(ms, 7*24*time.Hour, start)
	if len(windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(windows))
	}
	if len(windows[0].Groups) != 1 || windows[0].Groups[0].Successes != 10 {
		t.Fatalf("window 0 wrong: %+v", windows[0].Groups)
	}
	if len(windows[1].Groups) != 0 {
		t.Fatalf("window 1 should be empty, got %+v", windows[1].Groups)
	}
	if len(windows[2].Groups) != 1 || windows[2].Groups[0].Failures != 10 {
		t.Fatalf("window 2 wrong: %+v", windows[2].Groups)
	}
	if !windows[0].Window.Contains(start) || windows[0].Window.Contains(start.Add(8*24*time.Hour)) {
		t.Fatal("window bounds wrong")
	}
}

func TestAggregateWindowedEdgeCases(t *testing.T) {
	var epoch time.Time
	if got := AggregateWindowedAt(nil, time.Hour, epoch); got != nil {
		t.Fatal("empty input should return nil")
	}
	ms := []Measurement{{MeasurementID: "1", PatternKey: "k", State: core.StateSuccess}}
	if got := AggregateWindowedAt(ms, 0, epoch); got != nil {
		t.Fatal("zero window should return nil")
	}
	// Measurements without timestamps are ignored entirely.
	if got := AggregateWindowedAt(ms, time.Hour, epoch); got != nil {
		t.Fatal("timestampless measurements should produce no windows")
	}
}
