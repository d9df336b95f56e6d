package results

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
)

// geoCC converts a country-code string to the typed code used in records.
func geoCC(s string) geo.CountryCode { return geo.CountryCode(s) }

func TestMeasurementValidate(t *testing.T) {
	m := Measurement{MeasurementID: "a", PatternKey: "k", State: core.StateSuccess}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Measurement{PatternKey: "k", State: core.StateSuccess}).Validate(); err == nil {
		t.Fatal("missing ID accepted")
	}
	if err := (Measurement{MeasurementID: "a", State: core.StateSuccess}).Validate(); err == nil {
		t.Fatal("missing pattern accepted")
	}
	if err := (Measurement{MeasurementID: "a", PatternKey: "k", State: "bogus"}).Validate(); err == nil {
		t.Fatal("bad state accepted")
	}
	if err := (Measurement{MeasurementID: "a", PatternKey: "k", State: core.StateSuccess, Browser: 42}).Validate(); err == nil {
		t.Fatal("out-of-range browser family accepted")
	}
	if err := (Measurement{MeasurementID: "a", PatternKey: "k", State: core.StateSuccess, TaskType: 9}).Validate(); err == nil {
		t.Fatal("out-of-range task type accepted")
	}
	if err := (Measurement{MeasurementID: "a", PatternKey: "k", State: core.StateSuccess, TaskType: -1}).Validate(); err == nil {
		t.Fatal("negative task type accepted")
	}
	m.Browser, m.TaskType = core.BrowserOther, core.TaskScript
	if err := m.Validate(); err != nil {
		t.Fatalf("last browser family and task type refused: %v", err)
	}
}

func TestMeasurementStateHelpers(t *testing.T) {
	m := Measurement{MeasurementID: "a", PatternKey: "k", State: core.StateSuccess}
	if !m.Completed() || !m.Success() {
		t.Fatal("success measurement misclassified")
	}
	m.State = core.StateFailure
	if !m.Completed() || m.Success() {
		t.Fatal("failure measurement misclassified")
	}
	m.State = core.StateInit
	if m.Completed() || m.Success() {
		t.Fatal("init measurement misclassified")
	}
}

func TestStoreAddAndUpgrade(t *testing.T) {
	s := NewStore()
	init := Measurement{MeasurementID: "m1", PatternKey: "k", State: core.StateInit, Region: "US", ClientIP: "11.0.0.1"}
	if err := s.Add(init); err != nil {
		t.Fatal(err)
	}
	final := init
	final.State = core.StateSuccess
	if err := s.Add(final); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("store has %d records, want 1 (upgrade in place)", s.Len())
	}
	got, ok := s.Get("m1")
	if !ok || got.State != core.StateSuccess {
		t.Fatalf("terminal state not stored: %+v", got)
	}
	// A late init must not downgrade the terminal state.
	if err := s.Add(init); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get("m1")
	if got.State != core.StateSuccess {
		t.Fatal("init downgraded a terminal state")
	}
	if err := s.Add(Measurement{}); err == nil {
		t.Fatal("invalid measurement accepted")
	}
}

func TestStoreQueries(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		state := core.StateSuccess
		if i%3 == 0 {
			state = core.StateFailure
		}
		region := "US"
		if i%2 == 0 {
			region = "CN"
		}
		m := Measurement{
			MeasurementID: fmt.Sprintf("m%d", i),
			PatternKey:    "domain:youtube.com",
			State:         state,
			ClientIP:      fmt.Sprintf("11.0.0.%d", i%4),
			Region:        geoCC(region),
			Browser:       core.BrowserChrome,
		}
		if err := s.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 10 {
		t.Fatalf("Len=%d", s.Len())
	}
	if got := s.Stats().DistinctClients; got != 4 {
		t.Fatalf("DistinctClients=%d, want 4", got)
	}
	if got := s.DistinctRegions(); got != 2 {
		t.Fatalf("DistinctRegions=%d, want 2", got)
	}
	counts := s.Stats().ByCountry
	if counts[geoCC("CN")]+counts[geoCC("US")] != 10 {
		t.Fatalf("ByCountry=%v", counts)
	}
	failures := s.Filter(func(m Measurement) bool { return m.State == core.StateFailure })
	if len(failures) != 4 {
		t.Fatalf("Filter returned %d failures, want 4", len(failures))
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get of missing ID should fail")
	}
	stats := s.Stats()
	if stats.Measurements != 10 || stats.Countries != 2 {
		t.Fatalf("stats=%+v", stats)
	}
	top := stats.TopCountries(1)
	if len(top) != 1 {
		t.Fatalf("TopCountries=%v", top)
	}
	if len(stats.TopCountries(10)) != 2 {
		t.Fatal("TopCountries should cap at available countries")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		m := Measurement{
			MeasurementID: fmt.Sprintf("m%d", i),
			PatternKey:    "domain:twitter.com",
			TargetURL:     "http://twitter.com/favicon.ico",
			TaskType:      core.TaskImage,
			State:         core.StateSuccess,
			ClientIP:      "11.0.1.1",
			Region:        geoCC("IR"),
			Browser:       core.BrowserFirefox,
			Received:      time.Date(2014, 7, 1, 12, 0, 0, 0, time.UTC),
		}
		if err := s.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewStore()
	if err := loaded.ReadJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 5 {
		t.Fatalf("loaded %d records", loaded.Len())
	}
	got, _ := loaded.Get("m3")
	if got.Region != geoCC("IR") || got.TaskType != core.TaskImage {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if err := loaded.ReadJSONL(bytes.NewReader([]byte("{not json}\n"))); err == nil {
		t.Fatal("garbage line should error")
	}
}

func TestAggregate(t *testing.T) {
	var ms []Measurement
	add := func(pattern, region string, state core.State, control bool) {
		ms = append(ms, Measurement{
			MeasurementID: fmt.Sprintf("m%d", len(ms)),
			PatternKey:    pattern,
			State:         state,
			Region:        geoCC(region),
			Browser:       core.BrowserChrome,
			TaskType:      core.TaskImage,
			Control:       control,
		})
	}
	for i := 0; i < 8; i++ {
		add("domain:youtube.com", "PK", core.StateFailure, false)
	}
	for i := 0; i < 2; i++ {
		add("domain:youtube.com", "PK", core.StateSuccess, false)
	}
	for i := 0; i < 20; i++ {
		add("domain:youtube.com", "US", core.StateSuccess, false)
	}
	add("domain:youtube.com", "US", core.StateInit, false)
	add("domain:youtube.com", "US", core.StateFailure, true) // control, excluded

	groups := Aggregate(ms)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	var pk, us Group
	for _, g := range groups {
		switch g.Key.Region {
		case geoCC("PK"):
			pk = g
		case geoCC("US"):
			us = g
		}
	}
	if pk.Total != 10 || pk.Failures != 8 || pk.Successes != 2 {
		t.Fatalf("PK group wrong: %+v", pk)
	}
	if us.Total != 21 || us.Successes != 20 || us.InitOnly != 1 || us.Failures != 0 {
		t.Fatalf("US group wrong: %+v", us)
	}
	if pk.SuccessRate() != 0.2 {
		t.Fatalf("PK success rate=%v", pk.SuccessRate())
	}
	if us.SuccessRate() != 1.0 {
		t.Fatalf("US success rate=%v", us.SuccessRate())
	}
	empty := Group{}
	if empty.SuccessRate() != 1 {
		t.Fatal("empty group should default to success rate 1")
	}
	if pk.Browsers[core.BrowserChrome] != (Tally{Successes: 2, Failures: 8}) || pk.TaskTypes[core.TaskImage] != pk.Browsers[core.BrowserChrome] {
		t.Fatalf("PK tallies wrong: %+v %+v", pk.Browsers, pk.TaskTypes)
	}
	// The init-only record is not tallied.
	if us.Browsers[core.BrowserChrome] != (Tally{Successes: 20}) || us.TaskTypes[core.TaskImage] != us.Browsers[core.BrowserChrome] {
		t.Fatalf("US tallies wrong: %+v %+v", us.Browsers, us.TaskTypes)
	}
}

func TestAggregateDeterministicOrder(t *testing.T) {
	ms := []Measurement{
		{MeasurementID: "1", PatternKey: "b", Region: geoCC("US"), State: core.StateSuccess},
		{MeasurementID: "2", PatternKey: "a", Region: geoCC("CN"), State: core.StateSuccess},
		{MeasurementID: "3", PatternKey: "a", Region: geoCC("BR"), State: core.StateSuccess},
	}
	g := Aggregate(ms)
	if g[0].Key.PatternKey != "a" || g[0].Key.Region != geoCC("BR") {
		t.Fatalf("groups not sorted: %+v", g)
	}
}

func TestConcurrentStoreAccess(t *testing.T) {
	s := NewStore()
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				_ = s.Add(Measurement{
					MeasurementID: fmt.Sprintf("g%d-m%d", g, i),
					PatternKey:    "k",
					State:         core.StateSuccess,
					Region:        geoCC("US"),
				})
				_ = s.Len()
				_ = s.Stats()
			}
			done <- true
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s.Len() != 800 {
		t.Fatalf("Len=%d, want 800", s.Len())
	}
}

// Test-only store queries: the product reads a store through Stats, Range
// and the aggregator.

// Filter returns measurements matching pred, preserving insertion order. Like
// All, the result is a defensive copy safe for concurrent mutation.
func (s *Store) Filter(pred func(Measurement) bool) []Measurement {
	var out []Measurement
	_ = s.ordered(func(_ uint64, m Measurement) error {
		if pred(m) {
			out = append(out, m)
		}
		return nil
	})
	return out
}

// DistinctRegions returns the number of distinct regions reporting at least
// one measurement.
func (s *Store) DistinctRegions() int { return s.Stats().Countries }
