// Package campaign is the experiment-orchestration tier: it turns a
// declarative experiment spec — a target list plus a grid of dimensions
// (client counts × transports × region mixes × chaos arms × WAL sync
// policies × durations) — into an ordered, deterministic job set and drives
// it through a resumable work-queue dispatcher. The paper's results come
// from coordinated measurement campaigns (curated target lists driven
// across many vantage points over days, §5.1); this package replaces the
// hand-wired flags on encore-sim/loadgen with the experiment-generator +
// work-dispatcher pattern, rebuilt natively in Go.
//
// The moving parts:
//
//   - Spec (this file): the JSON experiment description. Target lists come
//     from internal/targets and honor its Sensitivity gating — a spec whose
//     resolved list schedules SensitivityHigh entries must carry the
//     explicit "allow-high-sensitivity" policy key or it fails validation
//     with a typed *SensitivityError (§8's safety decision is a spec-level
//     contract, not a code comment).
//   - Expand (grid.go): a deterministic grid expander. The same spec always
//     flattens to the byte-identical job set: stable IDs, per-job sub-seeds
//     drawn from one splitmix64 stream, and barrier tags (each job carries
//     its arm's tag plus the tags that must complete first, so all baseline
//     arms of a two-arm comparison finish before faulted arms report).
//   - Journal (journal.go): a crash-safe record of completed jobs, framed
//     with internal/wire's CRC framing (torn tails from a kill are detected
//     and dropped exactly like a WAL segment's) plus a tmp+rename cursor in
//     the style of federation.Forwarder's forward cursor.
//   - Dispatcher (dispatch.go): a bounded in-memory queue feeding N worker
//     slots, honoring barrier waves, pacing dispatch on api.LoadSignal /
//     Retry-After from live collectors, and resuming from the journal so a
//     killed campaign re-runs only what never finished — every job appears
//     exactly once in the recorded results.
//   - Runner (runner.go): the worker body — builds a clientsim stack per
//     job and runs loadgen.Run, or executes one scenario from the chaos
//     registry.
//   - Manifest (report.go): per-job result rows as JSONL plus a summary
//     table, stamped with host metadata (CPU model, physical cores,
//     GOMAXPROCS) so numbers from different machines are machine-readably
//     distinguishable.
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"regexp"
	"time"

	"encore/internal/loadgen"
	"encore/internal/results"
	"encore/internal/targets"
)

// Spec is the declarative description of one experiment campaign, parsed
// from JSON (see docs/API.md, "Campaign spec files", for the schema
// reference).
type Spec struct {
	// Name labels the campaign; it prefixes every job ID, so it must be a
	// filesystem- and report-safe token.
	Name string `json:"name"`
	// Seed roots every derived randomness stream: job sub-seeds, and through
	// them stack construction and chaos schedules. Same spec + same seed =
	// byte-identical job set and reproducible jobs.
	Seed uint64 `json:"seed"`
	// Targets selects and gates the measurement target list.
	Targets TargetsSpec `json:"targets"`
	// Visits is the per-job visit count; zero means DefaultVisits.
	Visits int `json:"visits,omitempty"`
	// Repeats is the per-cell repeat count; zero means 1.
	Repeats int `json:"repeats,omitempty"`
	// Workers is the default dispatcher worker-slot count; zero means 2. The
	// CLI may override it.
	Workers int `json:"workers,omitempty"`
	// Grid is the experiment grid; empty dimensions collapse to a single
	// default value, so the smallest useful spec names only what it varies.
	Grid GridSpec `json:"grid"`
}

// TargetsSpec selects the campaign's measurement targets: named built-in
// lists and/or files in the targets.ReadFrom format, merged
// (targets.Merge) and filtered to MaxSensitivity.
type TargetsSpec struct {
	// Lists names built-in lists: "study" (the §7.2 three-site list),
	// "herdict", "greatfire", "filbaan". Empty with no Files means "study".
	Lists []string `json:"lists,omitempty"`
	// Files are paths to plain-text target lists (targets.ReadFrom format),
	// resolved relative to the process working directory.
	Files []string `json:"files,omitempty"`
	// MaxSensitivity caps which entries survive the merge: "low" (default —
	// the paper's measurement-study restriction), "medium", or "high".
	MaxSensitivity string `json:"max-sensitivity,omitempty"`
	// AllowHighSensitivity is the explicit policy key §8 demands before a
	// campaign may schedule SensitivityHigh targets. A spec that resolves
	// high-sensitivity entries without it fails validation with a typed
	// *SensitivityError.
	AllowHighSensitivity bool `json:"allow-high-sensitivity,omitempty"`
}

// GridSpec is the experiment grid: the cartesian product of its dimensions
// (times Spec.Repeats) is the job set. Every dimension has a sensible
// single-value default, so an empty grid is one job.
type GridSpec struct {
	// Clients are concurrent client-stream counts (loadgen.Config.Clients).
	Clients []int `json:"clients,omitempty"`
	// Transports are submission transports: "" (in-process), "beacon", "v2",
	// "v2bin" — loadgen.Transport values.
	Transports []string `json:"transports,omitempty"`
	// RegionMixes fix the client-region composition per cell; an empty
	// Regions list samples by Internet population (the default mix).
	RegionMixes []RegionMix `json:"region-mixes,omitempty"`
	// WALSync selects the collector's durability per cell: "off" (no WAL),
	// or a results.SyncPolicy name ("none", "interval", "always").
	WALSync []string `json:"wal,omitempty"`
	// Durations are simulated campaign spans (Go duration strings).
	Durations []string `json:"durations,omitempty"`
	// Arms are the scenario arms. An arm without a Scenario runs a plain
	// loadgen campaign with the cell's parameters; an arm naming a scenario
	// from loadgen's chaos registry runs that scenario (its own two-arm
	// invariant check) at the job's sub-seed. After lists arm names whose
	// jobs must all complete before this arm's jobs start — the barrier
	// tags that order, e.g., baseline arms before faulted arms.
	Arms []Arm `json:"arms,omitempty"`
}

// RegionMix is one named client-region composition.
type RegionMix struct {
	Name string `json:"name"`
	// Regions is the fixed rotation of client regions; empty means "sample
	// by Internet population".
	Regions []string `json:"regions,omitempty"`
}

// Arm is one scenario arm of the grid.
type Arm struct {
	Name string `json:"name"`
	// Scenario optionally names a chaos scenario from
	// loadgen.ChaosScenarios(); empty runs a plain loadgen campaign.
	Scenario string `json:"scenario,omitempty"`
	// After lists arm names that act as barriers: every job of each named
	// arm must complete before any job of this arm starts.
	After []string `json:"after,omitempty"`
}

// Defaults for optional spec fields.
const (
	DefaultVisits  = 240
	DefaultRepeats = 1
	DefaultWorkers = 2
)

// ErrSpec is the base class of spec-validation failures; every validation
// error wraps it, so callers can errors.Is(err, ErrSpec) without enumerating
// causes.
var ErrSpec = errors.New("campaign: invalid spec")

// SensitivityError is the typed validation failure for the §8 safety gate:
// the spec's resolved target list schedules SensitivityHigh entries but the
// spec does not carry the explicit "allow-high-sensitivity" policy key. It
// wraps ErrSpec.
type SensitivityError struct {
	// HighEntries is how many SensitivityHigh entries the resolved list
	// would schedule.
	HighEntries int
}

// Error implements error.
func (e *SensitivityError) Error() string {
	return fmt.Sprintf("campaign: spec schedules %d high-sensitivity target(s) without the \"allow-high-sensitivity\" policy key (§8: scheduling these requires an explicit policy decision)", e.HighEntries)
}

// Unwrap makes errors.Is(err, ErrSpec) true for SensitivityErrors.
func (e *SensitivityError) Unwrap() error { return ErrSpec }

func specErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
}

// nameRE restricts campaign and dimension-value names to tokens safe in job
// IDs, file names, and report tables.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ParseSpec decodes and validates a spec from JSON. Unknown fields are
// rejected so a typo'd dimension name fails loudly instead of silently
// collapsing to its default.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and validates a spec file.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// normalized returns the grid with every empty dimension collapsed to its
// single default value, which is what Expand iterates.
func (g GridSpec) normalized() GridSpec {
	out := g
	if len(out.Clients) == 0 {
		out.Clients = []int{1}
	}
	if len(out.Transports) == 0 {
		out.Transports = []string{string(loadgen.TransportInProcess)}
	}
	if len(out.RegionMixes) == 0 {
		out.RegionMixes = []RegionMix{{Name: "global"}}
	}
	if len(out.WALSync) == 0 {
		out.WALSync = []string{WALOff}
	}
	if len(out.Durations) == 0 {
		out.Durations = []string{"24h"}
	}
	if len(out.Arms) == 0 {
		out.Arms = []Arm{{Name: "baseline"}}
	}
	return out
}

// WALOff is the WALSync dimension value meaning "no WAL attached"; the
// remaining values are results.ParseSyncPolicy names.
const WALOff = "off"

// Validate checks the spec's internal consistency — names, dimension
// values, arm barrier references (including cycles), and the target
// sensitivity gate. It is called by ParseSpec; Expand and the dispatcher
// call it again defensively.
func (s *Spec) Validate() error {
	if s.Name == "" || !nameRE.MatchString(s.Name) {
		return specErrf("name %q must match %s", s.Name, nameRE)
	}
	if s.Visits < 0 || s.Repeats < 0 || s.Workers < 0 {
		return specErrf("visits, repeats, and workers must be non-negative")
	}
	g := s.Grid.normalized()
	for _, c := range g.Clients {
		if c < 1 {
			return specErrf("grid.clients value %d must be >= 1", c)
		}
	}
	for _, tr := range g.Transports {
		switch loadgen.Transport(tr) {
		case loadgen.TransportInProcess, loadgen.TransportBeacon, loadgen.TransportV2, loadgen.TransportV2Binary:
		default:
			return specErrf("grid.transports value %q is not a loadgen transport", tr)
		}
	}
	seenMix := map[string]bool{}
	for _, m := range g.RegionMixes {
		if m.Name == "" || !nameRE.MatchString(m.Name) {
			return specErrf("region mix name %q must match %s", m.Name, nameRE)
		}
		if seenMix[m.Name] {
			return specErrf("duplicate region mix %q", m.Name)
		}
		seenMix[m.Name] = true
	}
	for _, w := range g.WALSync {
		if err := parseWALSync(w); err != nil {
			return err
		}
	}
	for _, d := range g.Durations {
		dur, err := time.ParseDuration(d)
		if err != nil || dur <= 0 {
			return specErrf("grid.durations value %q is not a positive duration", d)
		}
	}
	if err := validateArms(g.Arms); err != nil {
		return err
	}
	if _, err := s.ResolveTargets(); err != nil {
		return err
	}
	return nil
}

// parseWALSync validates one WALSync dimension value.
func parseWALSync(v string) error {
	if v == WALOff {
		return nil
	}
	if _, err := results.ParseSyncPolicy(v); err != nil || v == "" {
		return specErrf("grid.wal value %q: want %q or a sync policy (none, interval, always)", v, WALOff)
	}
	return nil
}

// validateArms checks arm names, scenario references, and the barrier DAG.
func validateArms(arms []Arm) error {
	byName := map[string]bool{}
	for _, a := range arms {
		if a.Name == "" || !nameRE.MatchString(a.Name) {
			return specErrf("arm name %q must match %s", a.Name, nameRE)
		}
		if byName[a.Name] {
			return specErrf("duplicate arm %q", a.Name)
		}
		byName[a.Name] = true
		if a.Scenario != "" {
			if _, ok := loadgen.FindChaosScenario(a.Scenario); !ok {
				return specErrf("arm %q names unknown chaos scenario %q (see encore-sim -chaos-list)", a.Name, a.Scenario)
			}
		}
	}
	for _, a := range arms {
		for _, dep := range a.After {
			if !byName[dep] {
				return specErrf("arm %q waits on unknown arm %q", a.Name, dep)
			}
			if dep == a.Name {
				return specErrf("arm %q waits on itself", a.Name)
			}
		}
	}
	if _, err := armDepths(arms); err != nil {
		return err
	}
	return nil
}

// armDepths computes each arm's barrier-wave depth: 0 for arms with no
// After, otherwise 1 + the maximum depth of the arms it waits on. A cycle in
// the After graph is a validation error.
func armDepths(arms []Arm) (map[string]int, error) {
	byName := map[string]Arm{}
	for _, a := range arms {
		byName[a.Name] = a
	}
	depth := map[string]int{}
	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(name string) (int, error)
	visit = func(name string) (int, error) {
		switch state[name] {
		case 1:
			return 0, specErrf("arm barrier cycle through %q", name)
		case 2:
			return depth[name], nil
		}
		state[name] = 1
		d := 0
		for _, dep := range byName[name].After {
			dd, err := visit(dep)
			if err != nil {
				return 0, err
			}
			if dd+1 > d {
				d = dd + 1
			}
		}
		state[name] = 2
		depth[name] = d
		return d, nil
	}
	for _, a := range arms {
		if _, err := visit(a.Name); err != nil {
			return nil, err
		}
	}
	return depth, nil
}

// ResolveTargets merges the spec's named lists and files, filters to
// MaxSensitivity, and enforces the high-sensitivity policy gate. The
// returned list is what every loadgen job's stack is built from.
func (s *Spec) ResolveTargets() (*targets.List, error) {
	var lists []*targets.List
	names := s.Targets.Lists
	if len(names) == 0 && len(s.Targets.Files) == 0 {
		names = []string{"study"}
	}
	for _, name := range names {
		l, err := builtinList(name)
		if err != nil {
			return nil, err
		}
		lists = append(lists, l)
	}
	for _, path := range s.Targets.Files {
		l, err := targets.ReadFile(path, "spec:"+path)
		if err != nil {
			return nil, fmt.Errorf("%w: targets file %s: %v", ErrSpec, path, err)
		}
		lists = append(lists, l)
	}
	max, err := parseSensitivity(s.Targets.MaxSensitivity)
	if err != nil {
		return nil, err
	}
	merged := targets.Merge(lists...).FilterSensitivity(max)
	if merged.Len() == 0 {
		return nil, specErrf("resolved target list is empty")
	}
	if !s.Targets.AllowHighSensitivity {
		high := 0
		for _, e := range merged.Entries() {
			if e.Sensitivity >= targets.SensitivityHigh {
				high++
			}
		}
		if high > 0 {
			return nil, &SensitivityError{HighEntries: high}
		}
	}
	return merged, nil
}

// builtinList resolves one named built-in target list.
func builtinList(name string) (*targets.List, error) {
	switch name {
	case "study":
		return targets.MeasurementStudyList(), nil
	case "herdict":
		return targets.HerdictHighValue(), nil
	case "greatfire":
		return targets.GreatFireChina(), nil
	case "filbaan":
		return targets.FilbaanIran(), nil
	}
	return nil, specErrf("unknown target list %q (want study, herdict, greatfire, or filbaan)", name)
}

// parseSensitivity maps a spec sensitivity name to the targets enum; empty
// defaults to low, the paper's measurement-study restriction.
func parseSensitivity(s string) (targets.Sensitivity, error) {
	switch s {
	case "", "low":
		return targets.SensitivityLow, nil
	case "medium":
		return targets.SensitivityMedium, nil
	case "high":
		return targets.SensitivityHigh, nil
	}
	return 0, specErrf("unknown max-sensitivity %q (want low, medium, or high)", s)
}
