package campaign

// The work-queue dispatcher: a bounded in-memory queue feeding N worker
// slots, with barrier waves between arm stages, load-signal pacing, and the
// journal underneath so a killed campaign resumes instead of restarting.
//
// Execution model: jobs run in barrier-wave order (wave w+1 starts only
// after every wave-w job is complete — including jobs journaled as done by
// a previous, killed run). Within a wave, a feeder pushes pending jobs into
// a bounded channel in ordinal order and workers drain it concurrently.
// Before each job, a worker consults the Pacer (live collectors'
// api.LoadSignal / Retry-After advice); after each job, the result is
// journaled and fsynced before it counts as complete. The cursor file is
// written once per run, before the first wave. Cancellation stops feeding and
// lets in-flight jobs finish; a harder kill loses at most the in-flight jobs,
// which re-run on resume — at-least-once execution, exactly-once reporting.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Pacer is the dispatcher's backpressure hook: Delay returns how long to
// hold the next job before dispatching it (zero means "go"). The
// CollectorPacer implementation derives the delay from live collectors'
// api.LoadSignal and Retry-After responses.
type Pacer interface {
	Delay(ctx context.Context) time.Duration
}

// queuePerWorker sizes the in-memory job queue: two queued jobs per worker
// keep every worker fed between feeder sends. Jobs still queued at a
// cancellation are drained without running.
const queuePerWorker = 2

// DispatchConfig parameterizes a campaign run.
type DispatchConfig struct {
	// Workers is the worker-slot count; zero falls back to Spec.Workers,
	// then DefaultWorkers.
	Workers int
	// Dir is the campaign state directory (journal + cursor). Empty runs
	// without a journal: nothing is persisted and nothing can resume.
	Dir string
	// Pacer optionally paces dispatch on live-collector load; nil never
	// pauses.
	Pacer Pacer
	// RunJob is the worker body. Nil uses the real Runner (build a
	// clientsim stack, run loadgen or the named chaos scenario); tests
	// substitute stubs.
	RunJob func(ctx context.Context, job Job) *JobResult
	// OnJobDone, when set, observes each completed job (after it is
	// journaled). The CLI uses it for progress lines and kill-after-N.
	OnJobDone func(*JobResult)
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Outcome is what a dispatcher run produced.
type Outcome struct {
	// Total is the expansion's job count; Ran were executed by this run,
	// Resumed were recovered from the journal, Failed counts results with a
	// recorded error (across both).
	Total, Ran, Resumed, Failed int
	// Results holds one entry per job in ordinal order; nil entries are
	// jobs this run never finished (canceled mid-campaign).
	Results []*JobResult
	// Hash is the expansion hash (also pinned in the cursor file).
	Hash string
	// TornJournal reports that the journal ended in a torn frame — the
	// expected artifact of a kill mid-append; the torn entry's job re-ran.
	TornJournal bool
}

// Completed reports how many jobs have recorded results.
func (o *Outcome) Completed() int { return o.Ran + o.Resumed }

// Run expands the spec and drives every not-yet-journaled job through the
// worker pool. It returns the outcome and, when the context was canceled
// mid-campaign, ctx.Err() — the outcome is still valid and resumable.
// Job-level failures do not fail the run; they are recorded in the results
// (check Outcome.Failed).
func Run(ctx context.Context, spec *Spec, cfg DispatchConfig) (*Outcome, error) {
	exp, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = spec.Workers
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.RunJob == nil {
		runner, err := NewRunner(spec)
		if err != nil {
			return nil, err
		}
		cfg.RunJob = runner.Run
	}

	byID := make(map[string]int, len(exp.Jobs))
	for i, j := range exp.Jobs {
		byID[j.ID] = i
	}

	outcome := &Outcome{
		Total:   len(exp.Jobs),
		Results: make([]*JobResult, len(exp.Jobs)),
		Hash:    exp.Hash,
	}

	// Journal + cursor: verify the state directory belongs to this spec,
	// then recover completed jobs.
	var journal *Journal
	starts := map[string]int{}
	if cfg.Dir != "" {
		cursor, found, err := loadCursor(cfg.Dir)
		if err != nil {
			return nil, err
		}
		if found && (cursor.Name != spec.Name || cursor.SpecHash != exp.Hash || cursor.TotalJobs != len(exp.Jobs)) {
			return nil, fmt.Errorf("%w: cursor pins %s/%s (%d jobs), spec expands to %s/%s (%d jobs)",
				ErrSpecMismatch, cursor.Name, cursor.SpecHash, cursor.TotalJobs, spec.Name, exp.Hash, len(exp.Jobs))
		}
		j, state, err := openJournal(cfg.Dir)
		if err != nil {
			return nil, err
		}
		journal = j
		defer journal.Close()
		starts = state.Starts
		outcome.TornJournal = state.TornTail
		for id, res := range state.Done {
			idx, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("%w: journal records unknown job %s", ErrSpecMismatch, id)
			}
			if outcome.Results[idx] == nil {
				outcome.Results[idx] = res
				outcome.Resumed++
				if res.Failed() {
					outcome.Failed++
				}
			}
		}
		if err := saveCursor(cfg.Dir, cursorState{
			Version: cursorVersion, Name: spec.Name, SpecHash: exp.Hash,
			TotalJobs: len(exp.Jobs),
		}); err != nil {
			return nil, err
		}
		if outcome.Resumed > 0 {
			cfg.Logf("campaign %s: resuming, %d of %d jobs already journaled", spec.Name, outcome.Resumed, outcome.Total)
		}
	}

	var mu sync.Mutex // guards outcome counters and results
	for w, wave := range exp.Waves {
		var pending []Job
		for _, idx := range wave {
			if outcome.Results[idx] == nil {
				pending = append(pending, exp.Jobs[idx])
			}
		}
		if len(pending) == 0 {
			continue
		}
		cfg.Logf("campaign %s: wave %d, %d job(s) over %d worker(s)", spec.Name, w, len(pending), cfg.Workers)

		queue := make(chan Job, queuePerWorker*cfg.Workers)
		var wg sync.WaitGroup
		for i := 0; i < cfg.Workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for job := range queue {
					if ctx.Err() != nil {
						continue // drain without running
					}
					runOne(ctx, cfg, journal, job, starts[job.ID]+1, func(res *JobResult) {
						mu.Lock()
						outcome.Results[job.Ordinal] = res
						outcome.Ran++
						if res.Failed() {
							outcome.Failed++
						}
						mu.Unlock()
						if cfg.OnJobDone != nil {
							cfg.OnJobDone(res)
						}
					})
				}
			}()
		}
	feed:
		for _, job := range pending {
			select {
			case queue <- job:
			case <-ctx.Done():
				break feed
			}
		}
		close(queue)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			cfg.Logf("campaign %s: interrupted with %d of %d jobs complete", spec.Name, outcome.Completed(), outcome.Total)
			return outcome, err
		}
	}
	return outcome, nil
}

// runOne paces, journals, executes, and records a single job. The done
// callback runs only after the result is durably journaled (when a journal
// is attached) — the ordering the exactly-once contract rests on.
func runOne(ctx context.Context, cfg DispatchConfig, journal *Journal, job Job, attempt int, done func(*JobResult)) {
	pace(ctx, cfg.Pacer)
	if ctx.Err() != nil {
		return
	}
	if journal != nil {
		if err := journal.append(journalEntry{Type: entryStarted, JobID: job.ID, Attempt: attempt, At: time.Now().UTC()}); err != nil {
			cfg.Logf("campaign: journaling start of %s: %v", job.ID, err)
		}
	}
	res := safeRun(ctx, cfg.RunJob, job)
	res.Attempt = attempt
	if journal != nil {
		if err := journal.append(journalEntry{Type: entryDone, JobID: job.ID, Attempt: attempt, At: time.Now().UTC(), Result: res}); err != nil {
			// An unjournalable result must not be reported as complete: the
			// next resume would re-run the job and report it twice.
			cfg.Logf("campaign: journaling result of %s: %v (job will re-run on resume)", job.ID, err)
			return
		}
	}
	done(res)
}

// pace blocks until the pacer stops asking for delay or the context ends.
func pace(ctx context.Context, p Pacer) {
	if p == nil {
		return
	}
	for {
		d := p.Delay(ctx)
		if d <= 0 || ctx.Err() != nil {
			return
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// safeRun executes the worker body, converting a panic (a stack-build
// failure, an unexpected nil) into a recorded job failure instead of
// killing the whole campaign.
func safeRun(ctx context.Context, run func(context.Context, Job) *JobResult, job Job) (res *JobResult) {
	started := time.Now().UTC()
	defer func() {
		if r := recover(); r != nil {
			res = &JobResult{
				JobID: job.ID, Ordinal: job.Ordinal, Seed: job.Seed, Cell: job.Cell,
				StartedAt: started, FinishedAt: time.Now().UTC(),
				Err: fmt.Sprintf("panic: %v", r),
			}
		}
		if res == nil {
			res = &JobResult{
				JobID: job.ID, Ordinal: job.Ordinal, Seed: job.Seed, Cell: job.Cell,
				StartedAt: started, FinishedAt: time.Now().UTC(),
				Err: "job runner returned no result",
			}
		}
	}()
	return run(ctx, job)
}
