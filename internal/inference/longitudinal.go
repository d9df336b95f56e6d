package inference

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"encore/internal/geo"
	"encore/internal/results"
)

// WindowVerdicts is the detector output for one time window of a
// longitudinal analysis.
type WindowVerdicts struct {
	Window   results.Window
	Verdicts []Verdict
}

// DetectWindows runs detection independently in each fixed-size time window,
// enabling the longitudinal analyses the paper motivates ("censorship ...
// varies over time in response to changing social or political conditions"):
// the onset or lifting of filtering appears as a transition in a pattern ×
// region cell's verdict between consecutive windows.
func (d *Detector) DetectWindows(store *results.Store, window time.Duration) []WindowVerdicts {
	return d.detectBuckets(results.AggregateWindowed(store.All(), window))
}

// DetectWindowsAggregated is DetectWindows over the incremental aggregation
// tier's online longitudinal view: the window buckets were maintained at
// ingest time, so no store rescan happens at all. window must equal the
// aggregator's configured window (see Aggregator.Windowed); the grid is
// anchored at the aggregator's epoch rather than the earliest measurement.
func (d *Detector) DetectWindowsAggregated(agg *results.Aggregator, window time.Duration) []WindowVerdicts {
	return d.detectBuckets(agg.Windowed(window))
}

// detectBuckets runs detection independently on each window's groups.
func (d *Detector) detectBuckets(buckets []results.WindowedGroups) []WindowVerdicts {
	out := make([]WindowVerdicts, 0, len(buckets))
	for _, b := range buckets {
		out = append(out, WindowVerdicts{Window: b.Window, Verdicts: d.Detect(b.Groups)})
	}
	return out
}

// Transition records a change in a cell's filtering verdict between two
// consecutive windows.
type Transition struct {
	PatternKey string
	Region     geo.CountryCode
	// At is the start of the window in which the new state first holds.
	At time.Time
	// FilteredNow is the new state: true for an onset of filtering, false
	// for filtering being lifted.
	FilteredNow bool
}

// Transitions extracts onset/lift events from a windowed detection run. Cells
// are only compared between windows in which they have enough data to be
// decided (Completed >= minCompleted), so sparse windows do not generate
// spurious transitions.
func Transitions(windows []WindowVerdicts, minCompleted int) []Transition {
	type state struct {
		filtered bool
		known    bool
	}
	last := make(map[string]state)
	var out []Transition
	for _, wv := range windows {
		for _, v := range wv.Verdicts {
			if v.Completed < minCompleted {
				continue
			}
			key := v.PatternKey + "|" + string(v.Region)
			prev, seen := last[key]
			if seen && prev.known && prev.filtered != v.Filtered {
				out = append(out, Transition{
					PatternKey:  v.PatternKey,
					Region:      v.Region,
					At:          wv.Window.Start,
					FilteredNow: v.Filtered,
				})
			}
			last[key] = state{filtered: v.Filtered, known: true}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		return out[i].PatternKey+string(out[i].Region) < out[j].PatternKey+string(out[j].Region)
	})
	return out
}

// TimelineReport renders a windowed detection run as one line per window
// listing the filtered cells, followed by the detected transitions.
func TimelineReport(windows []WindowVerdicts, minCompleted int) string {
	var b strings.Builder
	for _, wv := range windows {
		var filtered []string
		for _, v := range wv.Verdicts {
			if v.Filtered {
				filtered = append(filtered, fmt.Sprintf("%s@%s", v.PatternKey, v.Region))
			}
		}
		fmt.Fprintf(&b, "%s: %d cells, filtered: %s\n",
			wv.Window.Start.Format("2006-01-02"), len(wv.Verdicts), strings.Join(filtered, ", "))
	}
	for _, tr := range Transitions(windows, minCompleted) {
		verb := "onset of filtering"
		if !tr.FilteredNow {
			verb = "filtering lifted"
		}
		fmt.Fprintf(&b, "transition: %s in %s — %s at %s\n", tr.PatternKey, tr.Region, verb, tr.At.Format("2006-01-02"))
	}
	return b.String()
}

// NewTuned builds a detector whose null-hypothesis success probability is
// adjusted per region from the observed data, implementing the enhancement
// the paper sketches in §7.2 ("dynamically tuning model parameters to account
// for differing false positive rates in each country"). For each region the
// null probability becomes min(base.P, baseline × margin), where baseline is
// the region's median per-pattern success rate: regions with chronically
// lossy networks (high spurious-failure rates) get a lower bar, so they stop
// generating false positives without masking real filtering (which drives the
// success rate far below any plausible baseline).
func NewTuned(base Config, store *results.Store, margin float64) *TunedDetector {
	if margin <= 0 || margin > 1 {
		margin = 0.9
	}
	det := New(base)
	baselines := results.RegionBaselinesStore(store, det.cfg.MinMeasurements)
	return &TunedDetector{base: det, baselines: baselines, margin: margin}
}

// TunedDetector wraps a Detector with per-region null probabilities.
type TunedDetector struct {
	base      *Detector
	baselines map[geo.CountryCode]float64
	margin    float64
}

// NullProbability returns the per-region null success probability the tuned
// detector uses.
func (t *TunedDetector) NullProbability(region geo.CountryCode) float64 {
	p := t.base.cfg.Test.P
	if baseline, ok := t.baselines[region]; ok {
		tuned := baseline * t.margin
		if tuned < p {
			p = tuned
		}
	}
	if p <= 0.05 {
		p = 0.05
	}
	return p
}

// Detect runs detection with per-region tuned parameters.
func (t *TunedDetector) Detect(groups []results.Group) []Verdict {
	// Partition groups by region, run the base detector per region with its
	// tuned probability, then recompute the cross-region confirmation over
	// the combined verdict set.
	byRegion := make(map[geo.CountryCode][]results.Group)
	for _, g := range groups {
		byRegion[g.Key.Region] = append(byRegion[g.Key.Region], g)
	}
	var all []Verdict
	for region, gs := range byRegion {
		cfg := t.base.cfg
		cfg.Test.P = t.NullProbability(region)
		regional := New(cfg).Detect(gs)
		all = append(all, regional...)
	}
	// Recompute cross-region accessibility with the per-region reject flags.
	accessible := make(map[string]int)
	for _, v := range all {
		if v.Completed >= t.base.cfg.MinMeasurements && !v.RejectsNull {
			accessible[v.PatternKey]++
		}
	}
	for i := range all {
		all[i].AccessibleElsewhere = accessible[all[i].PatternKey] >= minControlRegions
		all[i].Filtered = all[i].RejectsNull && all[i].AccessibleElsewhere
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].PatternKey != all[j].PatternKey {
			return all[i].PatternKey < all[j].PatternKey
		}
		return all[i].Region < all[j].Region
	})
	return all
}

// DetectStore aggregates a store and runs tuned detection.
func (t *TunedDetector) DetectStore(store *results.Store) []Verdict {
	return t.Detect(results.Aggregate(store.All()))
}
