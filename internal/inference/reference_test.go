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
// a different region; some IDs are abandoned at init, some terminal records
// are delivered twice, and 5 % of IDs are control traffic.
func newReferenceCampaign(seed uint64, base time.Time) []results.Measurement {
	rng := stats.NewRNG(seed)
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
					Browser:       core.BrowserChrome,
					Control:       rng.Bool(0.05),
				}
				at := time.Duration(rng.Int63n(int64(50 * 24 * time.Hour)))
				if rng.Bool(0.4) {
					init := m
					init.State = core.StateInit
					if rng.Bool(0.1) {
						init.Region = referenceRegions[rng.Intn(len(referenceRegions))].code
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
// reference detector, over three randomized campaigns.
func TestReferenceDetectorMatchesEntryPoints(t *testing.T) {
	base := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	const window = 60 * 24 * time.Hour
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed + 100)
			events := newReferenceCampaign(seed, base)
			store := results.NewStore()
			agg := results.NewAggregator(results.AggregatorConfig{Window: window, Epoch: base})
			store.AddObserver(agg)
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
		})
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
		}
		if m.Control {
			counts["control record"]++
		}
		seen[m.MeasurementID] = m
	}
	if len(verdicts) < 1000 {
		t.Fatalf("campaign has %d cells, want at least 1000", len(verdicts))
	}
	for _, edge := range []string{"init-only cell", "cell below MinMeasurements", "all-success cell",
		"all-failure cell", "filtered cell", "rejected cell with no accessible region", "single-region pattern",
		"init→terminal upgrade", "upgrade moving region", "control record"} {
		if counts[edge] == 0 {
			t.Fatalf("campaign has no %s", edge)
		}
	}
}
