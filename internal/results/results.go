// Package results defines the measurement records Encore's collection server
// stores (§5.5) and the storage and aggregation tiers the detection
// algorithm consumes (§7.2). A Measurement joins the client-side submission
// with the server-side metadata (receiving time, client address, geolocated
// region) and the task it answers.
//
// Three tiers share one commit: Store is the sharded in-memory system of
// record; Aggregator is the online analysis tier, fed every effective insert
// and in-place upgrade through the CommitObserver hook; and WAL is the
// durability tier, an append-only segmented log fed through the same hook
// (with insertion sequence numbers, via CommitStreamObserver) whose replay —
// OpenStoreFromWAL — rebuilds a bit-for-bit identical store after a crash.
// The observer contract the two downstream tiers rely on is documented on
// CommitObserver and in docs/ARCHITECTURE.md.
//
// Measurement is the public value type on every API; what the Store keeps per
// measurement ID is a 72-byte entry in a chunk that is never re-allocated,
// with handles into per-shard tables holding one copy of each distinct task
// body and client context (intern.go). TaskIndex is built the same way.
package results

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
)

// Measurement is one completed measurement as stored by the collection
// server: what was tested, by whom, and what the client reported.
type Measurement struct {
	// MeasurementID links all submissions of one task execution.
	MeasurementID string `json:"measurement_id"`
	// PatternKey identifies what was tested (e.g. "domain:youtube.com").
	PatternKey string `json:"pattern_key"`
	// TargetURL is the specific resource the task fetched.
	TargetURL string `json:"target_url"`
	// TaskType is the mechanism used.
	TaskType core.TaskType `json:"task_type"`
	// State is the final reported state (init-only records mean the task
	// never completed).
	State core.State `json:"state"`
	// DurationMillis is the client-observed load time.
	DurationMillis float64 `json:"duration_millis"`
	// ClientIP is the submitting address.
	ClientIP string `json:"client_ip"`
	// Region is the geolocated country of ClientIP.
	Region geo.CountryCode `json:"region"`
	// Browser is the client's browser family (parsed from the user agent).
	Browser core.BrowserFamily `json:"browser"`
	// OriginSite is the Encore-hosting site the client was visiting, if the
	// Referer header was present.
	OriginSite string `json:"origin_site,omitempty"`
	// Control marks soundness-validation measurements, which are excluded
	// from filtering detection.
	Control bool `json:"control,omitempty"`
	// Received is when the collection server accepted the final submission.
	Received time.Time `json:"received"`
}

// Completed reports whether the measurement reached a terminal state.
func (m Measurement) Completed() bool {
	return m.State == core.StateSuccess || m.State == core.StateFailure
}

// Success reports whether the measurement completed and the resource loaded.
func (m Measurement) Success() bool { return m.State == core.StateSuccess }

// Validate checks the record is usable by analysis.
func (m Measurement) Validate() error {
	if m.MeasurementID == "" {
		return errors.New("results: measurement missing ID")
	}
	if m.PatternKey == "" {
		return errors.New("results: measurement missing pattern key")
	}
	if !core.ValidState(m.State) {
		return fmt.Errorf("results: invalid state %q", m.State)
	}
	return validKinds(m.TaskType, m.Browser)
}

// validKinds refuses a task type or browser family outside the ranges a
// Group's tallies are indexed by.
func validKinds(t core.TaskType, b core.BrowserFamily) error {
	if t < 0 || t > core.TaskScript {
		return fmt.Errorf("results: invalid task type %d", t)
	}
	if b < 0 || b > core.BrowserOther {
		return fmt.Errorf("results: invalid browser family %d", b)
	}
	return nil
}

// GroupKey identifies one aggregation cell: a pattern measured from a region.
type GroupKey struct {
	PatternKey string
	Region     geo.CountryCode
}

// Tally counts the completed measurements of one slice of a cell.
type Tally struct {
	Successes int
	Failures  int
}

// Group is the aggregated outcome of all measurements in one cell. It holds
// no references, so a copy is independent of the original.
type Group struct {
	Key       GroupKey
	Total     int
	Successes int
	Failures  int
	// InitOnly counts abandoned measurements (init with no terminal state);
	// they are excluded from the hypothesis test denominators.
	InitOnly int
	// Browsers and TaskTypes split Successes and Failures by the client's
	// browser family and by the task mechanism, indexed by the enum value;
	// the confound check reads them (inference.CheckConfounds).
	Browsers  [core.BrowserOther + 1]Tally
	TaskTypes [core.TaskScript + 1]Tally
}

// SuccessRate returns successes / (successes+failures), or 1 when no
// measurement completed (absence of evidence is not evidence of filtering).
func (g Group) SuccessRate() float64 {
	done := g.Successes + g.Failures
	if done == 0 {
		return 1
	}
	return float64(g.Successes) / float64(done)
}

// apply adds (sign=+1) or retracts (sign=-1) one measurement's contribution.
// Retraction is what lets the incremental Aggregator replace a measurement's
// old contribution when the store upgrades it in place (init → terminal).
func (g *Group) apply(m Measurement, sign int) {
	g.Total += sign
	switch m.State {
	case core.StateSuccess:
		g.Successes += sign
		g.Browsers[m.Browser].Successes += sign
		g.TaskTypes[m.TaskType].Successes += sign
	case core.StateFailure:
		g.Failures += sign
		g.Browsers[m.Browser].Failures += sign
		g.TaskTypes[m.TaskType].Failures += sign
	default:
		g.InitOnly += sign
	}
}

// sortGroups orders groups by pattern then region, the deterministic order
// every aggregation entry point returns.
func sortGroups(out []Group) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.PatternKey != out[j].Key.PatternKey {
			return out[i].Key.PatternKey < out[j].Key.PatternKey
		}
		return out[i].Key.Region < out[j].Key.Region
	})
}

// Aggregate groups the measurements by pattern and region, excluding control
// measurements. The result is sorted by pattern then region for
// deterministic iteration.
func Aggregate(ms []Measurement) []Group {
	cells := make(map[GroupKey]*Group)
	for _, m := range ms {
		if m.Control {
			continue
		}
		key := GroupKey{PatternKey: m.PatternKey, Region: m.Region}
		g, ok := cells[key]
		if !ok {
			g = &Group{Key: key}
			cells[key] = g
		}
		g.apply(m, 1)
	}
	out := make([]Group, 0, len(cells))
	for _, g := range cells {
		out = append(out, *g)
	}
	sortGroups(out)
	return out
}

// CampaignStats summarizes a measurement campaign the way §7 reports it:
// total measurements, distinct client IPs, distinct countries, and the
// per-country measurement counts.
type CampaignStats struct {
	Measurements    int
	DistinctClients int
	Countries       int
	ByCountry       map[geo.CountryCode]int
}

// TopCountries returns the n countries with the most measurements, sorted by
// descending count.
func (c CampaignStats) TopCountries(n int) []geo.CountryCode {
	type kv struct {
		code  geo.CountryCode
		count int
	}
	var all []kv
	for code, count := range c.ByCountry {
		all = append(all, kv{code, count})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].code < all[j].code
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]geo.CountryCode, 0, n)
	for _, e := range all[:n] {
		out = append(out, e.code)
	}
	return out
}
