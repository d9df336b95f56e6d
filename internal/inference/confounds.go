package inference

import (
	"fmt"
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
// verdict it reads the cell's per-browser and per-task-type tallies, which
// the aggregation tier keeps beside the cell's counters (results.Group), and
// warns when the failures are concentrated in a single slice while the other
// slices succeed.

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
// review before being reported as censorship. groups is the aggregation the
// verdicts were computed from (Aggregator.Groups or results.Aggregate): each
// group's Browsers and TaskTypes tallies are the breakdowns, so no
// measurement is read again.
func CheckConfounds(groups []results.Group, verdicts []Verdict) []ConfoundWarning {
	flagged := Filtered(verdicts)
	if len(flagged) == 0 {
		return nil
	}
	cells := make(map[results.GroupKey]*results.Group, len(groups))
	for i := range groups {
		cells[groups[i].Key] = &groups[i]
	}
	var warnings []ConfoundWarning
	for _, v := range flagged {
		g, ok := cells[results.GroupKey{PatternKey: v.PatternKey, Region: v.Region}]
		if !ok {
			continue
		}
		for _, dim := range []struct {
			name   string
			slices []results.Tally
			label  func(int) string
		}{
			{"browser", g.Browsers[:], func(i int) string { return core.BrowserFamily(i).String() }},
			{"task-type", g.TaskTypes[:], func(i int) string { return core.TaskType(i).String() }},
		} {
			if c, ok := findConfound(dim.slices); ok {
				warnings = append(warnings, ConfoundWarning{
					PatternKey:               v.PatternKey,
					Region:                   v.Region,
					Dimension:                dim.name,
					Slice:                    dim.label(c.slice),
					FailureShare:             c.failureShare,
					ObservedSuccessElsewhere: c.elsewhereSuccess,
				})
			}
		}
	}
	return warnings
}

type confoundCandidate struct {
	slice            int
	failureShare     float64
	elsewhereSuccess float64
}

// findConfound looks for a slice concentrating the failures while the other
// slices succeed. A cell with fewer than two slices holding a completed
// measurement cannot be attributed either way.
func findConfound(slices []results.Tally) (confoundCandidate, bool) {
	occupied, successes, failures := 0, 0, 0
	for _, s := range slices {
		if s.Successes+s.Failures > 0 {
			occupied++
		}
		successes += s.Successes
		failures += s.Failures
	}
	if occupied < 2 || failures == 0 {
		return confoundCandidate{}, false
	}
	for i, suspect := range slices {
		share := float64(suspect.Failures) / float64(failures)
		if share < minFailureShare {
			continue
		}
		otherSuccess := successes - suspect.Successes
		otherCompleted := otherSuccess + failures - suspect.Failures
		if otherCompleted < minElsewhereCompleted {
			continue
		}
		elsewhereRate := float64(otherSuccess) / float64(otherCompleted)
		if elsewhereRate >= minElsewhereSuccess {
			return confoundCandidate{slice: i, failureShare: share, elsewhereSuccess: elsewhereRate}, true
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
