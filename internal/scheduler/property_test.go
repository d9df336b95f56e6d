package scheduler

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/pipeline"
)

// TestQuickAssignmentsAlwaysValidAndCompatible checks that whatever client
// arrives (region, browser family, dwell time), every assigned task validates,
// is supported by the client's browser, stays within the per-client cap, and
// carries a fresh measurement ID.
func TestQuickAssignmentsAlwaysValidAndCompatible(t *testing.T) {
	ts := pipeline.NewTaskSet()
	for i := 0; i < 5; i++ {
		domain := fmt.Sprintf("site%d.example.org", i)
		ts.Add(pipeline.Candidate{
			PatternKey: "domain:" + domain,
			Type:       core.TaskImage,
			TargetURL:  "http://" + domain + "/favicon.ico",
			Strict:     true,
		})
		ts.Add(pipeline.Candidate{
			PatternKey: "domain:" + domain,
			Type:       core.TaskScript,
			TargetURL:  "http://" + domain + "/favicon.ico",
		})
		ts.Add(pipeline.Candidate{
			PatternKey:     "domain:" + domain,
			Type:           core.TaskIFrame,
			TargetURL:      "http://" + domain + "/page.html",
			CachedImageURL: "http://" + domain + "/logo.png",
		})
	}
	cfg := DefaultConfig()
	s := New(ts, cfg)
	seenIDs := make(map[string]bool)

	families := core.BrowserFamilies()
	regions := []geo.CountryCode{"US", "CN", "PK", "IR", "IN", "DE", "BR"}
	f := func(familyPick, regionPick uint8, dwell uint16, at uint32) bool {
		client := ClientInfo{
			Region:               regions[int(regionPick)%len(regions)],
			Browser:              families[int(familyPick)%len(families)],
			ExpectedDwellSeconds: float64(dwell % 300),
		}
		tasks := s.Assign(client, time.Unix(int64(at), 0))
		if len(tasks) > maxTasksPerClient {
			return false
		}
		for _, task := range tasks {
			if err := task.Validate(); err != nil {
				return false
			}
			if !client.Browser.SupportsTask(task.Type) {
				return false
			}
			if seenIDs[task.MeasurementID] {
				return false
			}
			seenIDs[task.MeasurementID] = true
			if task.Control {
				return false // no control set installed
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// seedFocusModel replicates the original single-mutex scheduler's focus
// rotation: the window is anchored at the first assignment and restarts
// whenever an assignment observes it expired. Under arrivals at least as
// dense as the window grid, this coincides with the sharded scheduler's
// epoch-derived focus; the property tests below prove that equivalence.
type seedFocusModel struct {
	keys   []string
	window time.Duration
	idx    int
	since  time.Time
}

func (m *seedFocusModel) focus(now time.Time) string {
	if len(m.keys) == 0 {
		return ""
	}
	if m.since.IsZero() || now.Sub(m.since) >= m.window {
		if !m.since.IsZero() {
			m.idx = (m.idx + 1) % len(m.keys)
		}
		m.since = now
	}
	return m.keys[m.idx]
}

// imageOnlyTaskSet builds P patterns each holding one strict image candidate,
// so every browser family's pool for every pattern is non-empty and the first
// pick of every page view lands on the focus pattern.
func imageOnlyTaskSet(patterns int) *pipeline.TaskSet {
	ts := pipeline.NewTaskSet()
	for i := 0; i < patterns; i++ {
		d := fmt.Sprintf("focus%02d.example.org", i)
		ts.Add(pipeline.Candidate{PatternKey: "domain:" + d, Type: core.TaskImage,
			TargetURL: "http://" + d + "/favicon.ico", Strict: true})
	}
	return ts
}

// TestPropertyFocusRotationMatchesSeedSchedule drives the sharded scheduler
// and the seed focus model over identical dense arrival sequences (arrivals
// on a grid whose step divides the quorum window) and asserts both schedule
// the same focus pattern at every arrival — the seed rotation schedule is
// preserved exactly wherever it was well-defined.
func TestPropertyFocusRotationMatchesSeedSchedule(t *testing.T) {
	for _, patterns := range []int{1, 3, 7} {
		for _, window := range []time.Duration{10 * time.Second, 60 * time.Second} {
			for _, stepsPerWindow := range []int{1, 2, 5} {
				cfg := DefaultConfig()
				cfg.QuorumWindow = window
				s := New(imageOnlyTaskSet(patterns), cfg)
				model := &seedFocusModel{keys: s.PatternKeys(), window: window}
				start := time.Unix(5_000_000, 0)
				step := window / time.Duration(stepsPerWindow)
				for i := 0; i < 8*patterns*stepsPerWindow; i++ {
					at := start.Add(time.Duration(i) * step)
					want := model.focus(at)
					tasks := s.Assign(ClientInfo{Region: "PK", Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}, at)
					if len(tasks) != 1 {
						t.Fatalf("P=%d window=%v steps=%d i=%d: got %d tasks, want 1", patterns, window, stepsPerWindow, i, len(tasks))
					}
					if tasks[0].PatternKey != want {
						t.Fatalf("P=%d window=%v steps=%d i=%d: assigned %s, seed schedule wants %s",
							patterns, window, stepsPerWindow, i, tasks[0].PatternKey, want)
					}
					if got := s.FocusPattern(at); got != want {
						t.Fatalf("FocusPattern=%s, seed schedule wants %s", got, want)
					}
				}
			}
		}
	}
}

// TestPropertyCoverageBalancePerRegion pins the old scheduler's coverage
// invariant on the sharded implementation: when picks fall through to
// coverage balancing (here the focus pattern is script-only, so non-Chrome
// clients always fall back), the per-region assignment counts across the
// fallback-eligible patterns never spread by more than one, no matter how
// regions interleave.
func TestPropertyCoverageBalancePerRegion(t *testing.T) {
	const patterns = 9
	ts := pipeline.NewTaskSet()
	// Pattern index 0 (also lexicographically first) is script-only: Chrome
	// could measure it, Firefox/Safari/IE/Other cannot.
	ts.Add(pipeline.Candidate{PatternKey: "domain:aaa-script-only.org", Type: core.TaskScript,
		TargetURL: "http://aaa-script-only.org/app.js", Strict: true})
	for i := 1; i < patterns; i++ {
		d := fmt.Sprintf("balance%02d.example.org", i)
		ts.Add(pipeline.Candidate{PatternKey: "domain:" + d, Type: core.TaskImage,
			TargetURL: "http://" + d + "/favicon.ico", Strict: true})
	}
	cfg := DefaultConfig()
	cfg.QuorumWindow = 1000 * time.Hour // focus never rotates off the script-only pattern
	s := New(ts, cfg)

	regions := []geo.CountryCode{"PK", "IR", "CN", "TR"}
	families := []core.BrowserFamily{core.BrowserFirefox, core.BrowserSafari, core.BrowserIE, core.BrowserOther}
	perRegion := make(map[geo.CountryCode]int)
	f := func(regionPick, familyPick uint8, dwell uint16) bool {
		region := regions[int(regionPick)%len(regions)]
		client := ClientInfo{
			Region:               region,
			Browser:              families[int(familyPick)%len(families)],
			ExpectedDwellSeconds: float64(dwell % 120),
		}
		tasks := s.Assign(client, time.Unix(6_000_000, 0))
		perRegion[region] += len(tasks)
		for _, task := range tasks {
			if task.PatternKey == "domain:aaa-script-only.org" {
				return false // non-Chrome client got the script-only focus
			}
		}
		// The invariant must hold after every single assignment.
		for _, r := range regions {
			min, max := -1, -1
			for i := 1; i < patterns; i++ {
				key := fmt.Sprintf("domain:balance%02d.example.org", i)
				n := s.Assignments(key, r)
				if min == -1 || n < min {
					min = n
				}
				if n > max {
					max = n
				}
			}
			if max-min > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	assigned := 0
	for _, n := range perRegion {
		assigned += n
	}
	if assigned == 0 {
		t.Fatal("property run never assigned a task")
	}
	if got := s.TotalAssignments(); got != assigned {
		t.Fatalf("TotalAssignments=%d, want %d", got, assigned)
	}
}
