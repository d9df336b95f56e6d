package results

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
)

// genMeasurements converts compact generated data into valid measurements.
func genMeasurements(ids []uint16, states []uint8, regions []uint8) []Measurement {
	regionNames := []geo.CountryCode{"US", "CN", "PK", "IR", "IN"}
	stateNames := []core.State{core.StateInit, core.StateSuccess, core.StateFailure}
	n := len(ids)
	if len(states) < n {
		n = len(states)
	}
	if len(regions) < n {
		n = len(regions)
	}
	out := make([]Measurement, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Measurement{
			MeasurementID: fmt.Sprintf("m%d", ids[i]%512),
			PatternKey:    fmt.Sprintf("domain:site%d.com", ids[i]%7),
			State:         stateNames[states[i]%3],
			Region:        regionNames[regions[i]%5],
			ClientIP:      fmt.Sprintf("11.0.%d.%d", regions[i]%4, ids[i]%250),
			Browser:       core.BrowserChrome,
			Received:      time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(ids[i]) * time.Minute),
		})
	}
	return out
}

// TestQuickStoreNeverDowngradesTerminalStates checks that whatever order
// submissions arrive in, a measurement that has ever reported a terminal
// state never reverts to init nor changes to the other terminal state (Add
// refuses exactly those), and the store never holds two records with the
// same ID.
func TestQuickStoreNeverDowngradesTerminalStates(t *testing.T) {
	f := func(ids []uint16, states []uint8, regions []uint8) bool {
		ms := genMeasurements(ids, states, regions)
		store := NewStore()
		firstTerminal := make(map[string]core.State)
		for _, m := range ms {
			first, sawTerminal := firstTerminal[m.MeasurementID]
			conflicting := sawTerminal && m.Completed() && m.State != first
			if err := store.Add(m); (err != nil) != conflicting || err != nil && !errors.Is(err, ErrConflictingData) {
				return false
			}
			if m.Completed() && !sawTerminal {
				firstTerminal[m.MeasurementID] = m.State
			}
		}
		seen := make(map[string]bool)
		for _, m := range store.All() {
			if seen[m.MeasurementID] {
				return false
			}
			seen[m.MeasurementID] = true
			if first, ok := firstTerminal[m.MeasurementID]; ok && m.State != first {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAggregateConservesCounts checks that aggregation conserves the
// number of non-control measurements: every stored measurement lands in
// exactly one group, and group tallies add up.
func TestQuickAggregateConservesCounts(t *testing.T) {
	f := func(ids []uint16, states []uint8, regions []uint8) bool {
		ms := genMeasurements(ids, states, regions)
		store := NewStore()
		for _, m := range ms {
			_ = store.Add(m)
		}
		all := store.All()
		groups := Aggregate(all)
		total := 0
		for _, g := range groups {
			if g.Successes+g.Failures+g.InitOnly != g.Total {
				return false
			}
			total += g.Total
		}
		return total == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickJSONLRoundTripPreservesStore checks that serializing and reloading
// a store preserves every record.
func TestQuickJSONLRoundTripPreservesStore(t *testing.T) {
	f := func(ids []uint16, states []uint8, regions []uint8) bool {
		store := NewStore()
		for _, m := range genMeasurements(ids, states, regions) {
			_ = store.Add(m)
		}
		var buf bytes.Buffer
		if err := store.WriteJSONL(&buf); err != nil {
			return false
		}
		reloaded := NewStore()
		if err := reloaded.ReadJSONL(&buf); err != nil {
			return false
		}
		if reloaded.Len() != store.Len() {
			return false
		}
		for _, m := range store.All() {
			got, ok := reloaded.Get(m.MeasurementID)
			if !ok || got.State != m.State || got.Region != m.Region || got.PatternKey != m.PatternKey {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWindowedAggregationConservesCompletedCounts checks that bucketing
// by time windows neither loses nor duplicates measurements.
func TestQuickWindowedAggregationConservesCompletedCounts(t *testing.T) {
	f := func(ids []uint16, states []uint8, regions []uint8, windowHours uint8) bool {
		ms := genMeasurements(ids, states, regions)
		store := NewStore()
		for _, m := range ms {
			_ = store.Add(m)
		}
		all := store.All()
		window := time.Duration(int(windowHours%72)+1) * time.Hour
		buckets := AggregateWindowedAt(all, window, time.Unix(0, 0))
		total := 0
		for _, b := range buckets {
			for _, g := range b.Groups {
				total += g.Total
			}
		}
		return total == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
