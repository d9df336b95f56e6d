package campaign

// The job runner: the dispatcher's default worker body. Every loadgen job
// builds a fresh clientsim stack at the job's sub-seed (so repeats are
// independent samples and concurrent jobs share nothing but the resolved
// target list, which is read-only) and drives loadgen.Run with the cell's
// coordinates; a chaos-arm job instead executes one scenario from the
// loadgen chaos registry at the same sub-seed. Either way the outcome is a
// JobResult row ready for the journal and the manifest.

import (
	"context"
	"fmt"
	"os"
	"time"

	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/geo"
	"encore/internal/loadgen"
	"encore/internal/results"
	"encore/internal/targets"
)

// campaignEpoch is the fixed nominal start of every campaign job — the
// paper's measurement-study start (§7), and the same epoch encore-sim uses —
// so simulated timelines are comparable across jobs and campaigns.
var campaignEpoch = time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)

// Runner executes campaign jobs for one spec.
type Runner struct {
	spec *Spec
	// targetList is resolved once and shared by every job's stack; the
	// pipeline only reads it.
	targetList *targets.List
}

// NewRunner resolves the spec's targets (re-checking the sensitivity gate)
// and returns a Runner whose Run is the dispatcher's default RunJob.
func NewRunner(spec *Spec) (*Runner, error) {
	list, err := spec.ResolveTargets()
	if err != nil {
		return nil, err
	}
	return &Runner{spec: spec, targetList: list}, nil
}

// Run executes one job and returns its result row. Failures — a chaos
// invariant violation, a WAL error, a bad cell — are recorded in the row,
// never returned as Go errors: to the dispatcher a failed job is data.
func (r *Runner) Run(ctx context.Context, job Job) *JobResult {
	res := &JobResult{
		JobID:     job.ID,
		Ordinal:   job.Ordinal,
		Seed:      job.Seed,
		Cell:      job.Cell,
		StartedAt: time.Now().UTC(),
	}
	if job.Cell.Scenario != "" {
		r.runChaos(job, res)
	} else {
		r.runLoadgen(ctx, job, res)
	}
	res.FinishedAt = time.Now().UTC()
	return res
}

// runChaos executes the cell's named chaos scenario at the job's sub-seed.
func (r *Runner) runChaos(job Job, res *JobResult) {
	cr := loadgen.RunChaosScenario(job.Cell.Scenario, job.Seed, nil)
	res.Chaos = &ChaosRow{Scenario: cr.Name, Surface: cr.Surface, Passed: cr.Err == nil}
	if cr.Err != nil {
		res.Err = cr.Err.Error()
	}
}

// runLoadgen builds a per-job stack and drives one loadgen campaign with
// the cell's coordinates.
func (r *Runner) runLoadgen(ctx context.Context, job Job, res *JobResult) {
	if err := ctx.Err(); err != nil {
		res.Err = err.Error()
		return
	}
	duration, err := time.ParseDuration(job.Cell.Duration)
	if err != nil {
		res.Err = fmt.Sprintf("cell duration %q: %v", job.Cell.Duration, err)
		return
	}

	var walCfg *results.WALConfig
	if job.Cell.WALSync != WALOff {
		policy, err := results.ParseSyncPolicy(job.Cell.WALSync)
		if err != nil {
			res.Err = fmt.Sprintf("cell wal policy %q: %v", job.Cell.WALSync, err)
			return
		}
		dir, err := os.MkdirTemp("", "campaign-wal-")
		if err != nil {
			res.Err = fmt.Sprintf("wal tmpdir: %v", err)
			return
		}
		defer os.RemoveAll(dir)
		walCfg = &results.WALConfig{Dir: dir, Policy: policy}
	}

	stack := clientsim.BuildStack(clientsim.StackConfig{
		Seed:    job.Seed,
		Censor:  censor.PaperPolicies(),
		Targets: r.targetList,
		WAL:     walCfg,
	})
	defer stack.Close()

	visits := r.spec.Visits
	if visits <= 0 {
		visits = DefaultVisits
	}
	regions := make([]geo.CountryCode, 0, len(job.Cell.Regions))
	for _, code := range job.Cell.Regions {
		regions = append(regions, geo.CountryCode(code))
	}
	lr := loadgen.Run(stack, loadgen.Config{
		Clients:           job.Cell.Clients,
		Visits:            visits,
		Start:             campaignEpoch,
		SimulatedDuration: duration,
		Transport:         loadgen.Transport(job.Cell.Transport),
		Regions:           regions,
	})
	res.Loadgen = newLoadgenRow(lr)
	if lr.WALErr != nil {
		res.Err = fmt.Sprintf("wal: %v", lr.WALErr)
	}
}
