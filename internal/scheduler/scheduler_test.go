package scheduler

import (
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/pipeline"
)

func taskSet() *pipeline.TaskSet {
	ts := pipeline.NewTaskSet()
	for _, d := range []string{"youtube.com", "twitter.com", "facebook.com"} {
		ts.Add(pipeline.Candidate{
			PatternKey: "domain:" + d,
			Type:       core.TaskImage,
			TargetURL:  "http://" + d + "/favicon.ico",
			Strict:     true,
		})
		ts.Add(pipeline.Candidate{
			PatternKey: "domain:" + d,
			Type:       core.TaskScript,
			TargetURL:  "http://" + d + "/favicon.ico",
			Strict:     true,
		})
		ts.Add(pipeline.Candidate{
			PatternKey:     "domain:" + d,
			Type:           core.TaskIFrame,
			TargetURL:      "http://" + d + "/profile/page-000.html",
			CachedImageURL: "http://" + d + "/static/shared-0.png",
			Strict:         true,
		})
	}
	return ts
}

func controlTaskSet() *pipeline.TaskSet {
	ts := pipeline.NewTaskSet()
	ts.Add(pipeline.Candidate{
		PatternKey: "domain:testbed.encore-test.org",
		Type:       core.TaskImage,
		TargetURL:  "http://dns-nxdomain.testbed.encore-test.org/pixel.png",
		Strict:     true,
	})
	return ts
}

func TestAssignSingleTask(t *testing.T) {
	s := New(taskSet(), DefaultConfig())
	client := ClientInfo{Region: "PK", Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}
	tasks := s.Assign(client, time.Unix(1000, 0))
	if len(tasks) != 1 {
		t.Fatalf("short-dwell client got %d tasks, want 1", len(tasks))
	}
	task := tasks[0]
	if err := task.Validate(); err != nil {
		t.Fatalf("assigned task invalid: %v", err)
	}
	if task.Type == core.TaskScript {
		t.Fatal("Firefox client must not receive script tasks")
	}
	if task.MeasurementID == "" || task.Created.IsZero() || task.TimeoutMillis <= 0 {
		t.Fatalf("task metadata incomplete: %+v", task)
	}
}

func TestAssignMultipleTasksForIdleClients(t *testing.T) {
	s := New(taskSet(), DefaultConfig())
	client := ClientInfo{Region: "US", Browser: core.BrowserChrome, ExpectedDwellSeconds: 120}
	tasks := s.Assign(client, time.Unix(1000, 0))
	if len(tasks) < 2 {
		t.Fatalf("idle client got only %d tasks", len(tasks))
	}
	if len(tasks) > maxTasksPerClient {
		t.Fatalf("assignment exceeds cap: %d", len(tasks))
	}
	ids := map[string]bool{}
	for _, task := range tasks {
		if ids[task.MeasurementID] {
			t.Fatal("duplicate measurement IDs in one assignment")
		}
		ids[task.MeasurementID] = true
	}
}

func TestMeasurementIDsUniqueAcrossClients(t *testing.T) {
	s := New(taskSet(), DefaultConfig())
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		tasks := s.Assign(ClientInfo{Region: "US", Browser: core.BrowserChrome, ExpectedDwellSeconds: 30}, time.Unix(int64(1000+i), 0))
		for _, task := range tasks {
			if seen[task.MeasurementID] {
				t.Fatalf("measurement ID %s reused", task.MeasurementID)
			}
			seen[task.MeasurementID] = true
		}
	}
	if s.TotalAssignments() != len(seen) {
		t.Fatalf("TotalAssignments=%d, want %d", s.TotalAssignments(), len(seen))
	}
}

func TestQuorumSchedulingConcentratesMeasurements(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QuorumWindow = 60 * time.Second
	s := New(taskSet(), cfg)
	start := time.Unix(10_000, 0)
	// 50 clients within the same 60-second window should mostly measure the
	// same (focus) pattern.
	counts := map[string]int{}
	for i := 0; i < 50; i++ {
		tasks := s.Assign(ClientInfo{Region: "PK", Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}, start.Add(time.Duration(i)*time.Second))
		for _, task := range tasks {
			counts[task.PatternKey]++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 40 {
		t.Fatalf("quorum scheduling should concentrate measurements; max pattern count %d of 50", max)
	}
	// After the window rotates, a different pattern becomes the focus.
	later := start.Add(2 * time.Minute)
	tasks := s.Assign(ClientInfo{Region: "PK", Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}, later)
	if len(tasks) == 0 {
		t.Fatal("no task assigned after rotation")
	}
}

func TestFocusRotatesAcrossWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QuorumWindow = 10 * time.Second
	s := New(taskSet(), cfg)
	seen := map[string]bool{}
	for w := 0; w < 6; w++ {
		at := time.Unix(int64(20_000+w*11), 0)
		tasks := s.Assign(ClientInfo{Region: "IR", Browser: core.BrowserSafari, ExpectedDwellSeconds: 5}, at)
		if len(tasks) == 1 {
			seen[tasks[0].PatternKey] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("focus pattern never rotated: %v", seen)
	}
}

func TestChromeReceivesScriptTasksSometimes(t *testing.T) {
	s := New(taskSet(), DefaultConfig())
	sawScript := false
	for i := 0; i < 300 && !sawScript; i++ {
		tasks := s.Assign(ClientInfo{Region: "CN", Browser: core.BrowserChrome, ExpectedDwellSeconds: 60}, time.Unix(int64(30_000+i*70), 0))
		for _, task := range tasks {
			if task.Type == core.TaskScript {
				sawScript = true
			}
			if !core.BrowserChrome.SupportsTask(task.Type) {
				t.Fatalf("Chrome assigned unsupported task %v", task.Type)
			}
		}
	}
	if !sawScript {
		t.Fatal("Chrome never received a script task in 300 assignments")
	}
}

func TestNonChromeNeverReceivesScriptTasks(t *testing.T) {
	s := New(taskSet(), DefaultConfig())
	for i := 0; i < 200; i++ {
		for _, family := range []core.BrowserFamily{core.BrowserFirefox, core.BrowserSafari, core.BrowserIE, core.BrowserOther} {
			tasks := s.Assign(ClientInfo{Region: "IN", Browser: family, ExpectedDwellSeconds: 30}, time.Unix(int64(40_000+i), 0))
			for _, task := range tasks {
				if task.Type == core.TaskScript {
					t.Fatalf("%v assigned a script task", family)
				}
			}
		}
	}
}

func TestControlFractionDivertsClients(t *testing.T) {
	s := New(taskSet(), DefaultConfig())
	s.SetControlTasks(controlTaskSet(), 0.3)
	control, regular := 0, 0
	for i := 0; i < 1000; i++ {
		tasks := s.Assign(ClientInfo{Region: "BR", Browser: core.BrowserChrome, ExpectedDwellSeconds: 5}, time.Unix(int64(50_000+i), 0))
		for _, task := range tasks {
			if task.Control {
				control++
			} else {
				regular++
			}
		}
	}
	frac := float64(control) / float64(control+regular)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("control fraction %.2f, want ~0.3", frac)
	}
}

func TestEmptyTaskSet(t *testing.T) {
	s := New(pipeline.NewTaskSet(), DefaultConfig())
	if tasks := s.Assign(ClientInfo{Region: "US", Browser: core.BrowserChrome, ExpectedDwellSeconds: 60}, time.Now()); tasks != nil {
		t.Fatalf("empty task set should assign nothing, got %d", len(tasks))
	}
}

func TestAssignmentsTracking(t *testing.T) {
	s := New(taskSet(), DefaultConfig())
	client := ClientInfo{Region: "EG", Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}
	tasks := s.Assign(client, time.Unix(60_000, 0))
	if len(tasks) != 1 {
		t.Fatalf("expected 1 task, got %d", len(tasks))
	}
	if got := s.Assignments(tasks[0].PatternKey, "EG"); got != 1 {
		t.Fatalf("Assignments=%d, want 1", got)
	}
	if got := s.Assignments("domain:never.com", "EG"); got != 0 {
		t.Fatalf("Assignments for unknown pattern=%d", got)
	}
}
