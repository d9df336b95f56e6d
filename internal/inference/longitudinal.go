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

// DetectWindows runs detection independently in each fixed-size time window
// of the aggregator's online longitudinal view, enabling the longitudinal
// analyses the paper motivates ("censorship ... varies over time in response
// to changing social or political conditions"): the onset or lifting of
// filtering appears as a transition in a pattern × region cell's verdict
// between consecutive windows. The buckets were maintained at ingest, so no
// store rescan happens. window must equal the aggregator's configured window
// (see Aggregator.Windowed); the grid is anchored at the aggregator's epoch.
func (d *Detector) DetectWindows(agg *results.Aggregator, window time.Duration) []WindowVerdicts {
	buckets := agg.Windowed(window)
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
