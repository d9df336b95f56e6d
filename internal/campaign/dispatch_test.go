package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubRunner is a RunJob substitute that records every execution and can
// delay, fail, or panic per job.
type stubRunner struct {
	mu    sync.Mutex
	runs  map[string]int
	order []string

	delay  func(job Job) time.Duration
	fail   func(job Job) string
	onDone func(job Job)
}

func newStubRunner() *stubRunner {
	return &stubRunner{runs: map[string]int{}}
}

func (s *stubRunner) run(ctx context.Context, job Job) *JobResult {
	if s.delay != nil {
		time.Sleep(s.delay(job))
	}
	s.mu.Lock()
	s.runs[job.ID]++
	s.order = append(s.order, job.ID)
	s.mu.Unlock()
	res := &JobResult{
		JobID: job.ID, Ordinal: job.Ordinal, Seed: job.Seed, Cell: job.Cell,
		StartedAt: time.Now().UTC(), FinishedAt: time.Now().UTC(),
	}
	if s.fail != nil {
		res.Err = s.fail(job)
	}
	if s.onDone != nil {
		s.onDone(job)
	}
	return res
}

func (s *stubRunner) runCount(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// barrierSpec expands to two waves: four baseline jobs, four faulted jobs
// gated behind them.
const barrierSpec = `{
	"name": "barrier",
	"seed": 1,
	"grid": {
		"clients": [1, 2],
		"transports": ["", "v2"],
		"arms": [
			{"name": "baseline"},
			{"name": "faulted", "after": ["baseline"]}
		]
	}
}`

// TestDispatchBarriers checks the barrier property under arbitrary worker
// interleavings: no faulted-arm job starts before every baseline-arm job
// has finished. Jittered per-job delays (derived from the deterministic
// sub-seeds) shuffle worker timing; -race covers the synchronization.
func TestDispatchBarriers(t *testing.T) {
	spec := mustParse(t, barrierSpec)
	var mu sync.Mutex
	var baselineDone int
	baselineTotal := 0
	exp, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range exp.Jobs {
		if j.Cell.Arm == "baseline" {
			baselineTotal++
		}
	}
	stub := newStubRunner()
	stub.delay = func(job Job) time.Duration {
		return time.Duration(job.Seed%7) * time.Millisecond
	}
	violations := 0
	stub.onDone = func(job Job) {
		mu.Lock()
		defer mu.Unlock()
		switch job.Cell.Arm {
		case "baseline":
			baselineDone++
		case "faulted":
			if baselineDone != baselineTotal {
				violations++
			}
		}
	}
	outcome, err := Run(context.Background(), spec, DispatchConfig{
		Workers: 4,
		RunJob:  stub.run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d faulted job(s) ran before all %d baseline jobs completed", violations, baselineTotal)
	}
	if outcome.Ran != outcome.Total || outcome.Failed != 0 {
		t.Fatalf("outcome %+v, want all %d ran", outcome, outcome.Total)
	}
}

// killSpec is a single-arm grid of 8 jobs for kill-and-resume runs.
const killSpec = `{
	"name": "kill",
	"seed": 9,
	"grid": {
		"clients": [1, 2],
		"transports": ["", "beacon"],
		"arms": [{"name": "only"}]
	},
	"repeats": 2
}`

// TestDispatchKillResume is the exactly-once property: cancel a campaign
// mid-flight, resume it from the journal, and verify every job appears in
// the recorded results exactly once — jobs completed before the kill are
// not re-run, jobs lost to it are.
func TestDispatchKillResume(t *testing.T) {
	spec := mustParse(t, killSpec)
	dir := t.TempDir()

	const killAfter = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completions atomic.Int64
	stub := newStubRunner()
	stub.delay = func(job Job) time.Duration {
		return time.Duration(job.Seed%5) * time.Millisecond
	}
	first, err := Run(ctx, spec, DispatchConfig{
		Workers: 2,
		Dir:     dir,
		RunJob:  stub.run,
		OnJobDone: func(*JobResult) {
			if completions.Add(1) >= killAfter {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run should return context.Canceled, got %v", err)
	}
	if first.Completed() == 0 || first.Completed() == first.Total {
		t.Fatalf("kill landed at %d of %d completions; the test needs a mid-campaign kill", first.Completed(), first.Total)
	}
	doneInFirst := map[string]bool{}
	for _, res := range first.Results {
		if res != nil {
			doneInFirst[res.JobID] = true
		}
	}

	second, err := Run(context.Background(), spec, DispatchConfig{
		Workers: 2,
		Dir:     dir,
		RunJob:  stub.run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != first.Completed() {
		t.Fatalf("resumed %d jobs, want the %d the first run completed", second.Resumed, first.Completed())
	}
	if second.Completed() != second.Total {
		t.Fatalf("resume finished %d of %d jobs", second.Completed(), second.Total)
	}
	seen := map[string]int{}
	for i, res := range second.Results {
		if res == nil {
			t.Fatalf("job ordinal %d missing from final results", i)
		}
		seen[res.JobID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("job %s appears %d times in the results", id, n)
		}
	}
	if len(seen) != second.Total {
		t.Fatalf("results cover %d of %d jobs", len(seen), second.Total)
	}
	// Jobs journaled done before the kill must not have re-run.
	for id := range doneInFirst {
		if n := stub.runCount(id); n != 1 {
			t.Fatalf("job %s completed before the kill but executed %d times", id, n)
		}
	}
}

func TestDispatchSpecMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	stub := newStubRunner()
	if _, err := Run(context.Background(), mustParse(t, killSpec), DispatchConfig{Dir: dir, RunJob: stub.run}); err != nil {
		t.Fatal(err)
	}
	other := mustParse(t, strings.Replace(killSpec, `"seed": 9`, `"seed": 10`, 1))
	if _, err := Run(context.Background(), other, DispatchConfig{Dir: dir, RunJob: stub.run}); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("resuming under a different expansion: want ErrSpecMismatch, got %v", err)
	}
}

func TestDispatchResumeAfterTornTail(t *testing.T) {
	// A kill mid-append leaves a torn frame; the resume must drop it and
	// re-run the torn job, not error out.
	spec := mustParse(t, killSpec)
	dir := t.TempDir()
	stub := newStubRunner()
	if _, err := Run(context.Background(), spec, DispatchConfig{Dir: dir, RunJob: stub.run}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFileName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	outcome, err := Run(context.Background(), spec, DispatchConfig{Dir: dir, RunJob: stub.run})
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.TornJournal {
		t.Fatal("truncated journal should be reported as torn")
	}
	if outcome.Completed() != outcome.Total || outcome.Ran == 0 {
		t.Fatalf("torn tail should re-run its job: %+v", outcome)
	}
	// The first resume cut the torn bytes before appending, so what it
	// journaled replays: a second resume finds every job done.
	again, err := Run(context.Background(), spec, DispatchConfig{Dir: dir, RunJob: stub.run})
	if err != nil {
		t.Fatal(err)
	}
	if again.Ran != 0 || again.TornJournal || again.Completed() != again.Total {
		t.Fatalf("second resume after a torn tail: Ran = %d, TornJournal = %v, completed %d of %d; want nothing re-run",
			again.Ran, again.TornJournal, again.Completed(), again.Total)
	}
}

func TestDispatchRecordsFailuresAndPanics(t *testing.T) {
	spec := mustParse(t, killSpec)
	stub := newStubRunner()
	stub.fail = func(job Job) string {
		if job.Ordinal == 1 {
			return "synthetic failure"
		}
		if job.Ordinal == 2 {
			panic("synthetic panic")
		}
		return ""
	}
	outcome, err := Run(context.Background(), spec, DispatchConfig{Workers: 2, RunJob: stub.run})
	if err != nil {
		t.Fatalf("job failures must be data, not run errors: %v", err)
	}
	if outcome.Failed != 2 {
		t.Fatalf("Failed = %d, want 2 (one error, one panic)", outcome.Failed)
	}
	if res := outcome.Results[2]; res == nil || !strings.Contains(res.Err, "panic") {
		t.Fatalf("panicking job should be recorded as a panic failure, got %+v", res)
	}
	if outcome.Completed() != outcome.Total {
		t.Fatalf("failures must not stall the campaign: %d of %d", outcome.Completed(), outcome.Total)
	}
}
