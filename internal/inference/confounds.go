package inference

import (
	"fmt"
	"sort"
	"strings"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
)

// §7.2 lists "accounting for potential confounding factors like user behavior
// differences between browsers and ISPs" as a needed enhancement: a cell can
// fail the binomial test because one browser family mis-executes a task type
// (or one task type is systematically unreliable) rather than because a
// censor interferes. This file implements that check: for each flagged
// verdict it breaks the cell's measurements down by browser family and by
// task type and warns when the failures are concentrated in a single slice
// while the other slices succeed.

// Breakdown is the success/failure tally of one slice (one browser family or
// one task type) of a detection cell.
type Breakdown struct {
	Label     string
	Successes int
	Failures  int
}

// Completed returns the number of completed measurements in the slice.
func (b Breakdown) Completed() int { return b.Successes + b.Failures }

// SuccessRate returns the slice's success rate (1 when empty).
func (b Breakdown) SuccessRate() float64 {
	if b.Completed() == 0 {
		return 1
	}
	return float64(b.Successes) / float64(b.Completed())
}

// CellBreakdown computes per-browser and per-task-type breakdowns for one
// pattern × region cell, excluding control and incomplete measurements.
func CellBreakdown(ms []results.Measurement, patternKey string, region geo.CountryCode) (byBrowser, byTaskType []Breakdown) {
	browsers := make(map[core.BrowserFamily]*Breakdown)
	taskTypes := make(map[core.TaskType]*Breakdown)
	for _, m := range ms {
		if m.Control || !m.Completed() || m.PatternKey != patternKey || m.Region != region {
			continue
		}
		bb, ok := browsers[m.Browser]
		if !ok {
			bb = &Breakdown{Label: m.Browser.String()}
			browsers[m.Browser] = bb
		}
		tb, ok := taskTypes[m.TaskType]
		if !ok {
			tb = &Breakdown{Label: m.TaskType.String()}
			taskTypes[m.TaskType] = tb
		}
		if m.Success() {
			bb.Successes++
			tb.Successes++
		} else {
			bb.Failures++
			tb.Failures++
		}
	}
	return sortedBreakdowns(browsers), sortedBreakdowns(taskTypes)
}

// ConfoundWarning flags a detection whose failures look attributable to a
// client-side factor rather than network filtering.
type ConfoundWarning struct {
	PatternKey string
	Region     geo.CountryCode
	// Dimension is "browser" or "task-type".
	Dimension string
	// Slice is the browser family or task type concentrating the failures.
	Slice string
	// FailureShare is the fraction of the cell's failures contributed by
	// the slice; ObservedSuccessElsewhere is the success rate of the other
	// slices combined.
	FailureShare             float64
	ObservedSuccessElsewhere float64
}

// String renders the warning.
func (w ConfoundWarning) String() string {
	return fmt.Sprintf("%s in %s: %.0f%% of failures come from %s %q while other %ss succeed %.0f%% of the time — possible client-side confound",
		w.PatternKey, w.Region, 100*w.FailureShare, w.Dimension, w.Slice, w.Dimension, 100*w.ObservedSuccessElsewhere)
}

// The warning thresholds, chosen conservatively.
const (
	// minFailureShare is how concentrated failures must be in one slice.
	minFailureShare = 0.9
	// minElsewhereSuccess is how healthy the remaining slices must look.
	minElsewhereSuccess = 0.8
	// minElsewhereCompleted requires enough data outside the suspect slice.
	minElsewhereCompleted = 5
)

// CheckConfounds inspects every filtered verdict and returns warnings for
// cells whose failures are concentrated in a single browser family or task
// type while the rest of the cell looks healthy. Such cells deserve manual
// review before being reported as censorship. The breakdowns for all flagged
// cells are tallied in one streaming pass over the store (Store.Range) —
// no defensive copy, and no per-verdict rescans.
func CheckConfounds(store *results.Store, verdicts []Verdict) []ConfoundWarning {
	flagged := Filtered(verdicts)
	if len(flagged) == 0 {
		return nil
	}
	type cellTally struct {
		browsers  map[core.BrowserFamily]*Breakdown
		taskTypes map[core.TaskType]*Breakdown
	}
	cells := make(map[results.GroupKey]*cellTally, len(flagged))
	for _, v := range flagged {
		cells[results.GroupKey{PatternKey: v.PatternKey, Region: v.Region}] = &cellTally{
			browsers:  make(map[core.BrowserFamily]*Breakdown),
			taskTypes: make(map[core.TaskType]*Breakdown),
		}
	}
	store.Range(func(m results.Measurement) bool {
		return !m.Control && m.Completed()
	}, func(m results.Measurement) bool {
		tally, ok := cells[results.GroupKey{PatternKey: m.PatternKey, Region: m.Region}]
		if !ok {
			return true
		}
		bb, ok := tally.browsers[m.Browser]
		if !ok {
			bb = &Breakdown{Label: m.Browser.String()}
			tally.browsers[m.Browser] = bb
		}
		tb, ok := tally.taskTypes[m.TaskType]
		if !ok {
			tb = &Breakdown{Label: m.TaskType.String()}
			tally.taskTypes[m.TaskType] = tb
		}
		if m.Success() {
			bb.Successes++
			tb.Successes++
		} else {
			bb.Failures++
			tb.Failures++
		}
		return true
	})
	var warnings []ConfoundWarning
	for _, v := range flagged {
		tally := cells[results.GroupKey{PatternKey: v.PatternKey, Region: v.Region}]
		byBrowser := sortedBreakdowns(tally.browsers)
		byTaskType := sortedBreakdowns(tally.taskTypes)
		for _, dim := range []struct {
			name   string
			slices []Breakdown
		}{{"browser", byBrowser}, {"task-type", byTaskType}} {
			if w, ok := findConfound(dim.slices); ok {
				warnings = append(warnings, ConfoundWarning{
					PatternKey:               v.PatternKey,
					Region:                   v.Region,
					Dimension:                dim.name,
					Slice:                    w.Label,
					FailureShare:             w.failureShare,
					ObservedSuccessElsewhere: w.elsewhereSuccess,
				})
			}
		}
	}
	return warnings
}

// sortedBreakdowns flattens a breakdown map into the label-sorted slice shape
// CellBreakdown returns.
func sortedBreakdowns[K comparable](m map[K]*Breakdown) []Breakdown {
	out := make([]Breakdown, 0, len(m))
	for _, b := range m {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

type confoundCandidate struct {
	Label            string
	failureShare     float64
	elsewhereSuccess float64
}

// findConfound looks for a slice concentrating the failures while the other
// slices succeed.
func findConfound(slices []Breakdown) (confoundCandidate, bool) {
	if len(slices) < 2 {
		return confoundCandidate{}, false
	}
	totalFailures := 0
	for _, s := range slices {
		totalFailures += s.Failures
	}
	if totalFailures == 0 {
		return confoundCandidate{}, false
	}
	for _, suspect := range slices {
		share := float64(suspect.Failures) / float64(totalFailures)
		if share < minFailureShare {
			continue
		}
		var otherSuccess, otherCompleted int
		for _, s := range slices {
			if s.Label == suspect.Label {
				continue
			}
			otherSuccess += s.Successes
			otherCompleted += s.Completed()
		}
		if otherCompleted < minElsewhereCompleted {
			continue
		}
		elsewhereRate := float64(otherSuccess) / float64(otherCompleted)
		if elsewhereRate >= minElsewhereSuccess {
			return confoundCandidate{Label: suspect.Label, failureShare: share, elsewhereSuccess: elsewhereRate}, true
		}
	}
	return confoundCandidate{}, false
}

// ConfoundReport renders warnings as text, one per line.
func ConfoundReport(warnings []ConfoundWarning) string {
	if len(warnings) == 0 {
		return "no client-side confounds detected among flagged cells\n"
	}
	var b strings.Builder
	for _, w := range warnings {
		b.WriteString(w.String())
		b.WriteByte('\n')
	}
	return b.String()
}
