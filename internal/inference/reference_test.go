package inference

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
	"encore/internal/stats"
)

// The §7.2 parameters, written here as literals so that the reference
// detector does not share a single constant with the code it checks.
const (
	paperP     = 0.7  // success probability of a measurement absent filtering
	paperAlpha = 0.05 // significance level of the one-sided test
	paperMinN  = 5    // completed measurements a cell needs before it is tested
)

// referenceDetect is the detection algorithm of §7.2 computed straight from
// final-state measurements (one per measurement ID): count completed and
// successful measurements per (pattern, region) excluding control traffic,
// flag a cell whose success count is improbably low under Binomial(n, p),
// and report it filtered only if the pattern is accessible (tested and not
// flagged) in some region. nullP, when set, overrides p per region. It uses
// no Group, no Aggregator and no dirty tracking.
func referenceDetect(final map[string]results.Measurement, nullP map[geo.CountryCode]float64) []Verdict {
	type cell struct {
		pattern string
		region  geo.CountryCode
	}
	tallies := make(map[cell]*Verdict)
	for _, m := range final {
		if m.Control {
			continue
		}
		c := cell{m.PatternKey, m.Region}
		v := tallies[c]
		if v == nil {
			v = &Verdict{PatternKey: m.PatternKey, Region: m.Region}
			tallies[c] = v
		}
		switch m.State {
		case core.StateSuccess:
			v.Completed++
			v.Successes++
		case core.StateFailure:
			v.Completed++
		}
	}
	accessible := make(map[string]bool)
	var out []Verdict
	for _, v := range tallies {
		p := paperP
		if q, ok := nullP[v.Region]; ok {
			p = q
		}
		v.PValue = stats.BinomialCDF(v.Completed, v.Successes, p)
		v.RejectsNull = v.Completed >= paperMinN && v.PValue <= paperAlpha
		if v.Completed >= paperMinN && !v.RejectsNull {
			accessible[v.PatternKey] = true
		}
		out = append(out, *v)
	}
	for i := range out {
		out[i].AccessibleElsewhere = accessible[out[i].PatternKey]
		out[i].Filtered = out[i].RejectsNull && out[i].AccessibleElsewhere
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PatternKey != out[j].PatternKey {
			return out[i].PatternKey < out[j].PatternKey
		}
		return out[i].Region < out[j].Region
	})
	return out
}

// referenceNullP is the per-country tuning §7.2 sketches: a region's null
// probability is min(p, margin × its median per-pattern success rate over
// patterns with at least paperMinN completed measurements), never below
// 0.05. Regions without such a pattern keep p (and are absent here).
func referenceNullP(final map[string]results.Measurement, margin float64) map[geo.CountryCode]float64 {
	type tally struct{ completed, successes int }
	cells := make(map[geo.CountryCode]map[string]*tally)
	for _, m := range final {
		if m.Control || (m.State != core.StateSuccess && m.State != core.StateFailure) {
			continue
		}
		if cells[m.Region] == nil {
			cells[m.Region] = make(map[string]*tally)
		}
		t := cells[m.Region][m.PatternKey]
		if t == nil {
			t = &tally{}
			cells[m.Region][m.PatternKey] = t
		}
		t.completed++
		if m.State == core.StateSuccess {
			t.successes++
		}
	}
	out := make(map[geo.CountryCode]float64)
	for region, patterns := range cells {
		var rates []float64
		for _, t := range patterns {
			if t.completed >= paperMinN {
				rates = append(rates, float64(t.successes)/float64(t.completed))
			}
		}
		if len(rates) > 0 {
			sort.Float64s(rates)
			out[region] = max(min(paperP, rates[len(rates)/2]*margin), 0.05)
		}
	}
	return out
}

// referenceGroups is the aggregate computed straight from final-state
// measurements: per (pattern, region) cell, excluding control traffic, the
// records by state, and the completed ones split by browser family and by
// task type. Sorted by pattern then region.
func referenceGroups(final map[string]results.Measurement) []results.Group {
	cells := make(map[results.GroupKey]*results.Group)
	for _, m := range final {
		if m.Control {
			continue
		}
		key := results.GroupKey{PatternKey: m.PatternKey, Region: m.Region}
		g := cells[key]
		if g == nil {
			g = &results.Group{Key: key}
			cells[key] = g
		}
		g.Total++
		switch m.State {
		case core.StateSuccess:
			g.Successes++
			g.Browsers[m.Browser].Successes++
			g.TaskTypes[m.TaskType].Successes++
		case core.StateFailure:
			g.Failures++
			g.Browsers[m.Browser].Failures++
			g.TaskTypes[m.TaskType].Failures++
		default:
			g.InitOnly++
		}
	}
	out := make([]results.Group, 0, len(cells))
	for _, g := range cells {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.PatternKey != out[j].Key.PatternKey {
			return out[i].Key.PatternKey < out[j].Key.PatternKey
		}
		return out[i].Key.Region < out[j].Key.Region
	})
	return out
}

// referenceConfounds is the §7.2 confound check computed straight from
// final-state measurements: for each filtered verdict, in order, it tallies
// the cell's completed non-control measurements by browser family and by
// task type, and runs findConfound over each breakdown.
func referenceConfounds(final map[string]results.Measurement, verdicts []Verdict) []ConfoundWarning {
	var out []ConfoundWarning
	for _, v := range verdicts {
		if !v.Filtered {
			continue
		}
		var browsers [core.BrowserOther + 1]results.Tally
		var taskTypes [core.TaskScript + 1]results.Tally
		for _, m := range final {
			if m.Control || m.PatternKey != v.PatternKey || m.Region != v.Region {
				continue
			}
			switch m.State {
			case core.StateSuccess:
				browsers[m.Browser].Successes++
				taskTypes[m.TaskType].Successes++
			case core.StateFailure:
				browsers[m.Browser].Failures++
				taskTypes[m.TaskType].Failures++
			}
		}
		warn := func(dimension, slice string, c confoundCandidate) {
			out = append(out, ConfoundWarning{PatternKey: v.PatternKey, Region: v.Region, Dimension: dimension,
				Slice: slice, FailureShare: c.failureShare, ObservedSuccessElsewhere: c.elsewhereSuccess})
		}
		if c, ok := findConfound(browsers[:]); ok {
			warn("browser", core.BrowserFamily(c.slice).String(), c)
		}
		if c, ok := findConfound(taskTypes[:]); ok {
			warn("task-type", core.TaskType(c.slice).String(), c)
		}
	}
	return out
}

// referenceRegions and their success rates absent filtering: NG is the
// chronically lossy region per-country tuning exists for.
var referenceRegions = []struct {
	code geo.CountryCode
	rate float64
}{
	{"US", 0.97}, {"DE", 0.95}, {"GB", 0.93}, {"IN", 0.88},
	{"NG", 0.55}, {"CN", 0.9}, {"IR", 0.9}, {"PK", 0.9},
}

// newReferenceCampaign generates 200 multi-region and 40 single-region
// patterns (≥ 1,000 cells). Cells hold 0–13 measurement IDs, so many stay
// below paperMinN; some cells are filtered, some patterns are down
// everywhere, some cells never fail. An ID may commit an init record before
// its terminal one (an upgrade the aggregator must retract), sometimes from
// a different region, browser family or task type; some IDs are abandoned at
// init, some terminal records are delivered twice, and 5 % of IDs are control
// traffic. Browser families and task types are drawn from their own stream,
// so the outcomes above do not depend on them. Six more patterns plant a
// client-side confound in IN: their failures there all come from one browser
// family (three patterns) or one task type (three).
func newReferenceCampaign(seed uint64, base time.Time) []results.Measurement {
	rng := stats.NewRNG(seed)
	kinds := stats.NewRNG(seed + 200)
	browser := func() core.BrowserFamily { return core.BrowserFamily(kinds.Intn(int(core.BrowserOther) + 1)) }
	taskType := func() core.TaskType { return core.TaskType(kinds.Intn(int(core.TaskScript) + 1)) }
	type timed struct {
		at time.Duration
		m  results.Measurement
	}
	var events []timed
	id := 0
	for p := 0; p < 240; p++ {
		pattern := fmt.Sprintf("domain:site%03d.com", p)
		regions := referenceRegions
		if p >= 200 {
			r := rng.Intn(len(referenceRegions))
			regions = referenceRegions[r : r+1]
		}
		down := rng.Bool(0.05)
		for _, region := range regions {
			rate := region.rate
			switch {
			case down:
				rate = 0
			case rng.Bool(0.08):
				rate = 0.03 // filtered here
			case rng.Bool(0.1):
				rate = 1
			}
			for n := rng.Intn(14); n > 0; n-- {
				id++
				m := results.Measurement{
					MeasurementID: fmt.Sprintf("ref%d", id),
					PatternKey:    pattern,
					Region:        region.code,
					Browser:       browser(),
					TaskType:      taskType(),
					Control:       rng.Bool(0.05),
				}
				at := time.Duration(rng.Int63n(int64(50 * 24 * time.Hour)))
				if rng.Bool(0.4) {
					init := m
					init.State = core.StateInit
					if rng.Bool(0.1) {
						init.Region = referenceRegions[rng.Intn(len(referenceRegions))].code
					}
					if kinds.Bool(0.2) {
						init.Browser, init.TaskType = browser(), taskType()
					}
					init.Received = base.Add(at)
					events = append(events, timed{at, init})
					at += time.Duration(rng.Int63n(int64(24 * time.Hour)))
					if rng.Bool(0.15) {
						continue // abandoned at init
					}
				}
				m.State = core.StateFailure
				if rng.Bool(rate) {
					m.State = core.StateSuccess
				}
				m.Received = base.Add(at)
				events = append(events, timed{at, m})
				if rng.Bool(0.05) {
					events = append(events, timed{at + time.Minute, m})
				}
			}
		}
	}
	for p := 0; p < 6; p++ {
		pattern := fmt.Sprintf("domain:confound%d.com", p)
		for _, region := range []geo.CountryCode{"US", "DE", "GB", "IN"} {
			for n := 0; n < 27; n++ {
				id++
				m := results.Measurement{
					MeasurementID: fmt.Sprintf("ref%d", id),
					PatternKey:    pattern,
					Region:        region,
					Browser:       browser(),
					TaskType:      taskType(),
					State:         core.StateSuccess,
				}
				if region == "IN" && n < 15 {
					m.State = core.StateFailure
					if p < 3 {
						m.Browser = core.BrowserIE
					} else {
						m.TaskType = core.TaskStylesheet
					}
				}
				at := time.Duration(kinds.Int63n(int64(50 * 24 * time.Hour)))
				m.Received = base.Add(at)
				events = append(events, timed{at, m})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	out := make([]results.Measurement, len(events))
	for i, e := range events {
		out[i] = e.m
	}
	return out
}

// commitFinal applies the store's merge rule to the final-state model: a
// later record replaces an ID's earlier one, except that a terminal state is
// never downgraded.
func commitFinal(final map[string]results.Measurement, m results.Measurement) {
	if prev, ok := final[m.MeasurementID]; ok && prev.Completed() && !m.Completed() {
		return
	}
	final[m.MeasurementID] = m
}

// TestReferenceDetectorMatchesEntryPoints holds DetectIncremental (called at
// random points mid-stream), DetectWindows over one window spanning the
// campaign, and NewTuned(...).Detect equal, field for field, to the §7.2
// reference detector, over three randomized campaigns. It also holds the
// aggregate (Groups, and every weekly bucket DetectWindows reads) equal to
// the groups tallied from raw measurements, breakdowns included, each weekly
// bucket's verdicts equal to the reference's, and CheckConfounds equal to
// the confound check run over raw tallies.
func TestReferenceDetectorMatchesEntryPoints(t *testing.T) {
	base := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	const window = 60 * 24 * time.Hour
	const week = 7 * 24 * time.Hour
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed + 100)
			events := newReferenceCampaign(seed, base)
			store := results.NewStore()
			agg := results.NewAggregator(results.AggregatorConfig{Window: window, Epoch: base})
			weekly := results.NewAggregator(results.AggregatorConfig{Window: week, Epoch: base})
			store.AddObserver(agg)
			store.AddObserver(weekly)
			d := New(DefaultConfig())
			final := make(map[string]results.Measurement)
			checks := 0
			for i := 0; i < len(events); {
				n := min(1+rng.Intn(64), len(events)-i)
				if _, err := store.AddBatch(events[i : i+n]); err != nil {
					t.Fatal(err)
				}
				for _, m := range events[i : i+n] {
					commitFinal(final, m)
				}
				i += n
				if rng.Bool(0.08) || i == len(events) {
					checks++
					requireVerdicts(t, fmt.Sprintf("DetectIncremental after %d events", i),
						d.DetectIncremental(agg), referenceDetect(final, nil))
				}
			}
			if checks < 10 {
				t.Fatalf("only %d mid-stream DetectIncremental checks", checks)
			}
			want := referenceDetect(final, nil)
			requireEdgeCells(t, want, events)

			windows := d.DetectWindows(agg, window)
			if len(windows) != 1 {
				t.Fatalf("campaign spans %d windows, want 1", len(windows))
			}
			requireVerdicts(t, "DetectWindows", windows[0].Verdicts, want)

			groups := agg.Groups()
			nullP := referenceNullP(final, 0.9)
			tuned := NewTuned(DefaultConfig(), groups, 0.9)
			for _, r := range referenceRegions {
				wantP, ok := nullP[r.code]
				if !ok {
					wantP = paperP
				}
				if got := tuned.NullProbability(r.code); got != wantP {
					t.Fatalf("tuned null probability for %s = %v, reference %v", r.code, got, wantP)
				}
			}
			tunedWant := referenceDetect(final, nullP)
			requireVerdicts(t, "NewTuned(...).Detect", tuned.Detect(groups), tunedWant)
			if reflect.DeepEqual(tunedWant, want) {
				t.Fatal("tuning changed no verdict: the campaign does not exercise it")
			}

			requireGroups(t, "Aggregator.Groups", groups, referenceGroups(final))
			byWeek := make(map[int64]map[string]results.Measurement)
			for id, m := range final {
				idx := int64(m.Received.Sub(base) / week)
				if byWeek[idx] == nil {
					byWeek[idx] = make(map[string]results.Measurement)
				}
				byWeek[idx][id] = m
			}
			buckets := weekly.Windowed(week)
			weekVerdicts := d.DetectWindows(weekly, week)
			if len(buckets) < 7 || len(weekVerdicts) != len(buckets) {
				t.Fatalf("%d weekly buckets, %d windows of verdicts", len(buckets), len(weekVerdicts))
			}
			for i, b := range buckets {
				idx := int64(b.Window.Start.Sub(base) / week)
				what := fmt.Sprintf("week %d", idx)
				requireGroups(t, what+" groups", b.Groups, referenceGroups(byWeek[idx]))
				requireVerdicts(t, what+" verdicts", weekVerdicts[i].Verdicts, referenceDetect(byWeek[idx], nil))
				delete(byWeek, idx)
			}
			for idx, rest := range byWeek {
				if len(referenceGroups(rest)) > 0 {
					t.Fatalf("week %d holds measurements but no bucket", idx)
				}
			}

			warnings := CheckConfounds(groups, want)
			wantWarnings := referenceConfounds(final, want)
			if !reflect.DeepEqual(warnings, wantWarnings) {
				t.Fatalf("CheckConfounds:\n got: %+v\nwant: %+v", warnings, wantWarnings)
			}
			planted := make(map[string]bool)
			for _, w := range wantWarnings {
				planted[w.PatternKey+"|"+w.Dimension+"|"+w.Slice] = true
			}
			for p := 0; p < 6; p++ {
				key := fmt.Sprintf("domain:confound%d.com|browser|%s", p, core.BrowserIE)
				if p >= 3 {
					key = fmt.Sprintf("domain:confound%d.com|task-type|%s", p, core.TaskStylesheet)
				}
				if !planted[key] {
					t.Fatalf("planted confound %s not reported: %+v", key, wantWarnings)
				}
			}
		})
	}
}

// requireGroups fails on the first group that differs from the reference.
func requireGroups(t *testing.T, what string, got, want []results.Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: group %d\n got: %+v\nwant: %+v", what, i, got[i], want[i])
		}
	}
}

// requireVerdicts fails on the first verdict that differs from the
// reference.
func requireVerdicts(t *testing.T, what string, got, want []Verdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: verdict %d\n got: %+v\nwant: %+v", what, i, got[i], want[i])
		}
	}
}

// requireEdgeCells checks the campaign reaches every edge the reference
// comparison is meant to cover, so a generator change cannot quietly drop
// one.
func requireEdgeCells(t *testing.T, verdicts []Verdict, events []results.Measurement) {
	t.Helper()
	regions := make(map[string]int)
	counts := make(map[string]int)
	for _, v := range verdicts {
		regions[v.PatternKey]++
		switch {
		case v.Completed == 0:
			counts["init-only cell"]++
		case v.Completed < paperMinN:
			counts["cell below MinMeasurements"]++
		case v.Successes == v.Completed:
			counts["all-success cell"]++
		case v.Successes == 0:
			counts["all-failure cell"]++
		}
		if v.Filtered {
			counts["filtered cell"]++
		}
		if v.RejectsNull && !v.AccessibleElsewhere {
			counts["rejected cell with no accessible region"]++
		}
	}
	for _, n := range regions {
		if n == 1 {
			counts["single-region pattern"]++
		}
	}
	seen := make(map[string]results.Measurement)
	for _, m := range events {
		if prev, ok := seen[m.MeasurementID]; ok && !prev.Completed() && m.Completed() {
			counts["init→terminal upgrade"]++
			if prev.Region != m.Region {
				counts["upgrade moving region"]++
			}
			if prev.Browser != m.Browser {
				counts["upgrade changing browser"]++
			}
			if prev.TaskType != m.TaskType {
				counts["upgrade changing task type"]++
			}
		}
		if m.Control {
			counts["control record"]++
		}
		if m.Completed() {
			counts["completed by "+m.Browser.String()]++
			counts["completed by "+m.TaskType.String()]++
		}
		seen[m.MeasurementID] = m
	}
	if len(verdicts) < 1000 {
		t.Fatalf("campaign has %d cells, want at least 1000", len(verdicts))
	}
	edges := []string{"init-only cell", "cell below MinMeasurements", "all-success cell",
		"all-failure cell", "filtered cell", "rejected cell with no accessible region", "single-region pattern",
		"init→terminal upgrade", "upgrade moving region", "upgrade changing browser",
		"upgrade changing task type", "control record"}
	for _, b := range core.BrowserFamilies() {
		edges = append(edges, "completed by "+b.String())
	}
	for _, tt := range core.TaskTypes() {
		edges = append(edges, "completed by "+tt.String())
	}
	for _, edge := range edges {
		if counts[edge] == 0 {
			t.Fatalf("campaign has no %s", edge)
		}
	}
}
