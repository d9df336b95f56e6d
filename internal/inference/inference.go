// Package inference implements Encore's filtering detection algorithm
// (§4.3, §7.2): measurements of a resource from a region are modelled as
// Bernoulli trials that succeed with probability p (0.7 in the paper) in the
// absence of filtering; a one-sided binomial hypothesis test at significance
// α (0.05) flags region/resource pairs whose success counts are improbably
// low, and a pair is reported as filtered only if the same resource passes
// the test (i.e. remains accessible) somewhere else. The cross-region
// requirement is what separates "this site is down or broken" from "this
// site is blocked here".
//
// Detection reads only the pattern×region counters a results.Aggregator
// maintains at ingest; nothing here rescans a store. There are three entry
// points: Detect, the pure kernel over a slice of groups; DetectIncremental,
// which recomputes only the patterns whose counters changed since the last
// call — O(dirtied groups) per pass instead of O(store), which keeps
// detection latency flat as a campaign accumulates measurements; and
// DetectWindows, the longitudinal view over the aggregator's time buckets.
// NewTuned builds an ordinary Detector whose null probability is tuned per
// region (the §7.2 enhancement). CheckConfounds flags detections whose
// failures concentrate in one browser or task type; it reads the same
// groups, whose per-browser and per-task-type tallies the aggregator keeps.
// The tests hold every entry point, the groups and the confound check equal
// to a reference written straight from §7 (reference_test.go), computed from
// raw final-state measurements.
package inference

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"encore/internal/geo"
	"encore/internal/results"
	"encore/internal/stats"
)

// Config parameterizes the detector.
type Config struct {
	// Test is the hypothesis test; defaults to the paper's parameters
	// (p=0.7, α=0.05).
	Test stats.BinomialTest
	// MinMeasurements is the minimum number of completed (success or
	// failure) measurements a pattern×region group needs before the detector
	// will consider flagging it. It counts measurements, not clients: one
	// client that submits this many results from a region meets it on its
	// own. A per-client bound is ROADMAP item 2.
	MinMeasurements int
}

// minControlRegions is how many other regions must find the resource
// accessible before a flagged region is reported (the "yet does not fail the
// same test in other regions" condition).
const minControlRegions = 1

// DefaultConfig returns the paper's detection parameters.
func DefaultConfig() Config {
	return Config{
		Test:            stats.DefaultBinomialTest(),
		MinMeasurements: 5,
	}
}

// Verdict is the detector's conclusion for one pattern in one region.
type Verdict struct {
	PatternKey string
	Region     geo.CountryCode
	// Completed is the number of measurements that reached a terminal
	// state; Successes of those that loaded the resource.
	Completed int
	Successes int
	// PValue is Pr[Binomial(Completed, p) <= Successes].
	PValue float64
	// RejectsNull reports whether the binomial test alone flags the cell.
	RejectsNull bool
	// AccessibleElsewhere reports whether at least minControlRegions other
	// regions measured the same pattern without rejecting the null.
	AccessibleElsewhere bool
	// Filtered is the final decision: RejectsNull && AccessibleElsewhere.
	Filtered bool
}

// SuccessRate returns the observed success fraction.
func (v Verdict) SuccessRate() float64 {
	if v.Completed == 0 {
		return 1
	}
	return float64(v.Successes) / float64(v.Completed)
}

// Detector runs the detection algorithm over aggregated measurements. A
// single Detector may be shared: Detect is stateless, and the incremental
// path (DetectIncremental) guards its verdict cache with its own mutex.
type Detector struct {
	cfg Config
	// tuned holds a tuned detector's per-region null probability before the
	// base cap and floor (see NewTuned); nil for an untuned detector.
	tuned map[geo.CountryCode]float64

	// Incremental state: cached per-pattern verdicts for the aggregator most
	// recently passed to DetectIncremental. The detection algorithm
	// decomposes by pattern — a cell's verdict depends only on the other
	// regions measuring the same pattern — so a dirtied group invalidates
	// exactly its pattern's verdicts and nothing else.
	incMu        sync.Mutex
	incAgg       *results.Aggregator
	incByPattern map[string][]Verdict
	incSorted    []Verdict
}

// New creates a detector; zero-value config fields fall back to defaults.
func New(cfg Config) *Detector {
	def := DefaultConfig()
	if cfg.Test.P == 0 && cfg.Test.Alpha == 0 {
		cfg.Test = def.Test
	}
	if cfg.MinMeasurements <= 0 {
		cfg.MinMeasurements = def.MinMeasurements
	}
	return &Detector{cfg: cfg}
}

// Config returns the effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// NewTuned builds a detector whose null-hypothesis success probability is
// adjusted per region from the observed groups, implementing the enhancement
// the paper sketches in §7.2 ("dynamically tuning model parameters to account
// for differing false positive rates in each country"). For each region the
// null probability becomes min(base.P, baseline × margin), floored at 0.05,
// where baseline is the region's median per-pattern success rate over cells
// with at least MinMeasurements completed measurements: regions with
// chronically lossy networks (high spurious-failure rates) get a lower bar,
// so they stop generating false positives without masking real filtering
// (which drives the success rate far below any plausible baseline). A margin
// outside (0, 1] means 0.9.
func NewTuned(base Config, groups []results.Group, margin float64) *Detector {
	if margin <= 0 || margin > 1 {
		margin = 0.9
	}
	d := New(base)
	// Measurements without a region have no country to tune for.
	rates := make(map[geo.CountryCode][]float64)
	for _, g := range groups {
		if n := g.Successes + g.Failures; n >= d.cfg.MinMeasurements && g.Key.Region != "" {
			rates[g.Key.Region] = append(rates[g.Key.Region], float64(g.Successes)/float64(n))
		}
	}
	d.tuned = make(map[geo.CountryCode]float64, len(rates))
	for region, rs := range rates {
		// The median per-pattern rate is robust to a minority of genuinely
		// filtered patterns dragging the estimate down.
		sort.Float64s(rs)
		d.tuned[region] = rs[len(rs)/2] * margin
	}
	return d
}

// NullProbability returns the null success probability the detector tests
// region's cells against: the configured P, or for a tuned detector the
// region's tuned value.
func (d *Detector) NullProbability(region geo.CountryCode) float64 {
	p := d.cfg.Test.P
	if d.tuned == nil {
		return p
	}
	if tuned, ok := d.tuned[region]; ok && tuned < p {
		p = tuned
	}
	return max(p, 0.05)
}

// Detect evaluates every (pattern, region) cell in the aggregated groups and
// returns verdicts sorted by pattern then region. Cells with fewer completed
// measurements than MinMeasurements yield verdicts with Filtered=false and
// are still included so reports can show coverage.
func (d *Detector) Detect(groups []results.Group) []Verdict {
	var verdicts []Verdict
	for pattern, cells := range groupsByPattern(groups) {
		verdicts = append(verdicts, d.detectPattern(pattern, cells)...)
	}
	sortVerdicts(verdicts)
	return verdicts
}

// detectPattern evaluates all regions of one pattern: per-cell binomial
// tests, then the cross-region accessibility confirmation. The algorithm
// decomposes cleanly at this boundary, which is what makes per-pattern
// incremental recomputation exact.
func (d *Detector) detectPattern(pattern string, cells []results.Group) []Verdict {
	verdicts := make([]Verdict, 0, len(cells))
	// Count regions where the resource looks accessible (enough data and the
	// test does not reject).
	accessibleRegions := 0
	test := d.cfg.Test
	for _, g := range cells {
		completed := g.Successes + g.Failures
		test.P = d.NullProbability(g.Key.Region)
		v := Verdict{
			PatternKey:  pattern,
			Region:      g.Key.Region,
			Completed:   completed,
			Successes:   g.Successes,
			PValue:      test.PValue(g.Successes, completed),
			RejectsNull: completed >= d.cfg.MinMeasurements && test.Rejects(g.Successes, completed),
		}
		if completed >= d.cfg.MinMeasurements && !v.RejectsNull {
			accessibleRegions++
		}
		verdicts = append(verdicts, v)
	}
	for i := range verdicts {
		verdicts[i].AccessibleElsewhere = accessibleRegions >= minControlRegions
		verdicts[i].Filtered = verdicts[i].RejectsNull && verdicts[i].AccessibleElsewhere
	}
	return verdicts
}

// sortVerdicts orders verdicts by pattern then region, the deterministic
// order every detection entry point returns.
func sortVerdicts(verdicts []Verdict) {
	sort.Slice(verdicts, func(i, j int) bool {
		if verdicts[i].PatternKey != verdicts[j].PatternKey {
			return verdicts[i].PatternKey < verdicts[j].PatternKey
		}
		return verdicts[i].Region < verdicts[j].Region
	})
}

// DetectIncremental evaluates the detection algorithm over an incrementally
// maintained Aggregator, recomputing verdicts only for patterns whose group
// counters changed since the previous call (the aggregator's dirty-pattern
// set). Unchanged patterns reuse their cached verdicts, so steady-state cost
// is O(dirtied groups + total verdicts) and does not grow with the number of
// stored measurements. The first call with a given aggregator (or after
// switching aggregators) computes everything.
//
// The returned slice is identical in content and order to
// Detect(results.Aggregate(store.All())) whenever the aggregator has observed
// exactly the store's commits and ingest is quiescent; with writers running
// it reflects the aggregator's current (eventually consistent) counters.
//
// Draining the dirty set is destructive: give each aggregator one incremental
// consumer. A second detector calling DetectIncremental on the same
// aggregator steals the first's dirty marks, leaving the first serving stale
// cached verdicts (a detector's first call is always a full build, so a fresh
// detector is never wrong — only a cache-holding one can go stale).
func (d *Detector) DetectIncremental(agg *results.Aggregator) []Verdict {
	d.incMu.Lock()
	defer d.incMu.Unlock()
	if d.incAgg != agg {
		d.incAgg = agg
		d.incByPattern = nil
		d.incSorted = nil
	}
	dirty := agg.DrainDirtyPatterns()
	switch {
	case d.incByPattern == nil:
		// Full build: every pattern currently in the aggregator.
		d.incByPattern = make(map[string][]Verdict)
		for pattern, cells := range groupsByPattern(agg.Groups()) {
			d.incByPattern[pattern] = d.detectPattern(pattern, cells)
		}
		d.incSorted = nil
	case len(dirty) > 0:
		byPattern := groupsByPattern(agg.GroupsForPatterns(dirty))
		for _, pattern := range dirty {
			cells, ok := byPattern[pattern]
			if !ok {
				// Every group of the pattern was retracted away.
				delete(d.incByPattern, pattern)
				continue
			}
			d.incByPattern[pattern] = d.detectPattern(pattern, cells)
		}
		d.incSorted = nil
	}
	if d.incSorted == nil {
		n := 0
		for _, vs := range d.incByPattern {
			n += len(vs)
		}
		d.incSorted = make([]Verdict, 0, n)
		for _, vs := range d.incByPattern {
			d.incSorted = append(d.incSorted, vs...)
		}
		sortVerdicts(d.incSorted)
	}
	// Hand out a copy: callers are free to mutate detection results, and the
	// cache must survive them.
	return append([]Verdict(nil), d.incSorted...)
}

// groupsByPattern splits sorted groups by pattern key.
func groupsByPattern(groups []results.Group) map[string][]results.Group {
	out := make(map[string][]results.Group)
	for _, g := range groups {
		out[g.Key.PatternKey] = append(out[g.Key.PatternKey], g)
	}
	return out
}

// Filtered returns only the verdicts flagged as filtered.
func Filtered(verdicts []Verdict) []Verdict {
	var out []Verdict
	for _, v := range verdicts {
		if v.Filtered {
			out = append(out, v)
		}
	}
	return out
}

// FilteredSet returns a set keyed "pattern|region" for quick membership
// checks in tests and experiment scoring.
func FilteredSet(verdicts []Verdict) map[string]bool {
	out := make(map[string]bool)
	for _, v := range verdicts {
		if v.Filtered {
			out[v.PatternKey+"|"+string(v.Region)] = true
		}
	}
	return out
}

// Report renders a human-readable filtering report: one line per filtered
// pair, followed by coverage statistics.
func Report(verdicts []Verdict) string {
	var b strings.Builder
	filtered := Filtered(verdicts)
	fmt.Fprintf(&b, "Detected filtering: %d pattern/region pairs\n", len(filtered))
	for _, v := range filtered {
		fmt.Fprintf(&b, "  %s filtered in %s: %d/%d succeeded (p=%.4f)\n",
			v.PatternKey, v.Region, v.Successes, v.Completed, v.PValue)
	}
	byPattern := make(map[string]int)
	for _, v := range verdicts {
		byPattern[v.PatternKey]++
	}
	fmt.Fprintf(&b, "Coverage: %d patterns across %d cells\n", len(byPattern), len(verdicts))
	return b.String()
}

// GroundTruth is the oracle used to score detection in simulations: it
// reports whether the pattern is really filtered in the region.
type GroundTruth func(patternKey string, region geo.CountryCode) bool

// Confusion is a confusion matrix for detection scoring.
type Confusion struct {
	TruePositives  int
	FalsePositives int
	TrueNegatives  int
	FalseNegatives int
}

// Precision returns TP / (TP + FP), or 1 when nothing was flagged.
func (c Confusion) Precision() float64 {
	if c.TruePositives+c.FalsePositives == 0 {
		return 1
	}
	return float64(c.TruePositives) / float64(c.TruePositives+c.FalsePositives)
}

// Recall returns TP / (TP + FN), or 1 when nothing was truly filtered.
func (c Confusion) Recall() float64 {
	if c.TruePositives+c.FalseNegatives == 0 {
		return 1
	}
	return float64(c.TruePositives) / float64(c.TruePositives+c.FalseNegatives)
}

// Score compares verdicts to ground truth. Only cells with at least
// minCompleted completed measurements are scored, since cells without data
// cannot be decided either way.
func Score(verdicts []Verdict, truth GroundTruth, minCompleted int) Confusion {
	var c Confusion
	for _, v := range verdicts {
		if v.Completed < minCompleted {
			continue
		}
		actual := truth(v.PatternKey, v.Region)
		switch {
		case v.Filtered && actual:
			c.TruePositives++
		case v.Filtered && !actual:
			c.FalsePositives++
		case !v.Filtered && actual:
			c.FalseNegatives++
		default:
			c.TrueNegatives++
		}
	}
	return c
}
