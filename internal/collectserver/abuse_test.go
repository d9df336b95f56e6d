package collectserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
)

func TestAbuseGuardRateLimit(t *testing.T) {
	g := NewAbuseGuard(AbuseGuardConfig{MaxSubmissionsPerWindow: 5, Window: time.Hour})
	now := time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		if err := g.Check("11.0.0.1", fmt.Sprintf("m%d", i), "success", now); err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
	}
	if err := g.Check("11.0.0.1", "m6", "success", now); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("6th submission should be rate limited, got %v", err)
	}
	// A different client is unaffected.
	if err := g.Check("11.0.0.2", "m7", "success", now); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	// After the window passes the client may submit again.
	if err := g.Check("11.0.0.1", "m8", "success", now.Add(2*time.Hour)); err != nil {
		t.Fatalf("submission after window rejected: %v", err)
	}
}

func TestAbuseGuardConflictingTerminalStates(t *testing.T) {
	g := NewAbuseGuard(DefaultAbuseGuardConfig())
	now := time.Now()
	if err := g.Check("11.0.0.1", "m1", "success", now); err != nil {
		t.Fatal(err)
	}
	// Re-reporting the same state is fine (retries happen).
	if err := g.Check("11.0.0.1", "m1", "success", now); err != nil {
		t.Fatal(err)
	}
	if err := g.Check("11.0.0.9", "m1", "failure", now); !errors.Is(err, ErrConflictingData) {
		t.Fatalf("conflicting terminal state should be rejected, got %v", err)
	}
	// Init records never conflict.
	if err := g.Check("11.0.0.9", "m1", "init", now); err != nil {
		t.Fatal(err)
	}
}

// TestAbuseGuardPrune pins what encore-collector's checkpoint tick relies on:
// Prune forgets exactly the clients whose rate window has lapsed, so a
// long-running collector tracks active addresses, not every address ever seen.
func TestAbuseGuardPrune(t *testing.T) {
	base := time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name        string
		pruneAfter  time.Duration
		wantTracked int
	}{
		{"inside every window", 30 * time.Second, 20},
		{"early half lapsed", 75 * time.Second, 10},
		{"all lapsed", 2 * time.Minute, 0},
	} {
		g := NewAbuseGuard(AbuseGuardConfig{MaxSubmissionsPerWindow: 10, Window: time.Minute})
		// Ten clients open their window at base, ten more 30s later.
		for i := 0; i < 20; i++ {
			at := base.Add(time.Duration(i/10) * 30 * time.Second)
			_ = g.Check(fmt.Sprintf("11.0.0.%d", i), fmt.Sprintf("m%d", i), "success", at)
		}
		if g.TrackedClients() != 20 {
			t.Fatalf("%s: tracked clients=%d before prune", tc.name, g.TrackedClients())
		}
		g.Prune(base.Add(tc.pruneAfter))
		if got := g.TrackedClients(); got != tc.wantTracked {
			t.Fatalf("%s: prune left %d clients, want %d", tc.name, got, tc.wantTracked)
		}
	}
}

func TestAbuseGuardDefaults(t *testing.T) {
	g := NewAbuseGuard(AbuseGuardConfig{})
	if g.cfg.MaxSubmissionsPerWindow <= 0 || g.cfg.Window <= 0 {
		t.Fatal("defaults not applied")
	}
	// Submissions without a client IP skip rate limiting but still check
	// terminal-state consistency.
	if err := g.Check("", "m1", "success", time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := g.Check("", "m1", "failure", time.Now()); !errors.Is(err, ErrConflictingData) {
		t.Fatalf("err=%v", err)
	}
}

func TestServerRejectsPoisoningFlood(t *testing.T) {
	store := results.NewStore()
	index := results.NewTaskIndex()
	g := geo.NewRegistry(1)
	s := New(store, index, g)
	s.Guard = NewAbuseGuard(AbuseGuardConfig{MaxSubmissionsPerWindow: 10, Window: time.Hour})
	s.Now = func() time.Time { return time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC) }

	// An attacker somehow learned 100 valid measurement IDs and floods
	// failure reports from one address.
	for i := 0; i < 100; i++ {
		index.Register(core.Task{
			MeasurementID: fmt.Sprintf("m%d", i),
			Type:          core.TaskImage,
			TargetURL:     "http://youtube.com/favicon.ico",
			PatternKey:    "domain:youtube.com",
		})
	}
	accepted := 0
	for i := 0; i < 100; i++ {
		err := s.Accept(core.Submission{
			MeasurementID: fmt.Sprintf("m%d", i),
			State:         core.StateFailure,
			ClientIP:      "11.0.0.77",
		})
		if err == nil {
			accepted++
		} else if !errors.Is(err, ErrRateLimited) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if accepted != 10 {
		t.Fatalf("flood accepted %d submissions, want exactly the rate limit (10)", accepted)
	}
	if store.Len() != 10 {
		t.Fatalf("store has %d measurements", store.Len())
	}
}

func TestServerRejectsConflictingResubmission(t *testing.T) {
	store := results.NewStore()
	index := results.NewTaskIndex()
	s := New(store, index, geo.NewRegistry(1))
	registerTask(index, "m-conflict", false)
	if err := s.Accept(core.Submission{MeasurementID: "m-conflict", State: core.StateSuccess, ClientIP: "11.0.0.1"}); err != nil {
		t.Fatal(err)
	}
	err := s.Accept(core.Submission{MeasurementID: "m-conflict", State: core.StateFailure, ClientIP: "11.0.0.2"})
	if !errors.Is(err, ErrConflictingData) {
		t.Fatalf("conflicting resubmission accepted: %v", err)
	}
	m, _ := store.Get("m-conflict")
	if m.State != core.StateSuccess {
		t.Fatal("original result was overwritten by the poisoned one")
	}
}

// TestAbuseGuardConcurrent exercises the sharded guard from many goroutines:
// per-client rate limits must hold exactly under concurrency, and for each
// measurement at most one terminal state may ever be accepted.
func TestAbuseGuardConcurrent(t *testing.T) {
	const limit = 50
	g := NewAbuseGuard(AbuseGuardConfig{MaxSubmissionsPerWindow: limit, Window: time.Hour})
	now := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)

	// Rate limiting: `workers` goroutines share one IP; exactly `limit`
	// submissions may pass in total.
	const workers, attempts = 8, 20
	var accepted, limited int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				err := g.Check("11.0.0.1", fmt.Sprintf("rate-%d-%d", w, i), "init", now)
				mu.Lock()
				if err == nil {
					accepted++
				} else if err == ErrRateLimited {
					limited++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if accepted != limit {
		t.Fatalf("accepted %d submissions from one IP, want exactly %d", accepted, limit)
	}
	if limited != workers*attempts-limit {
		t.Fatalf("limited %d, want %d", limited, workers*attempts-limit)
	}

	// Conflicting terminal states: goroutines race success vs failure for the
	// same IDs from distinct IPs; for each ID only one state may win.
	const ids = 100
	acceptedStates := make([]map[string]bool, ids)
	for i := range acceptedStates {
		acceptedStates[i] = make(map[string]bool)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := "success"
			if w%2 == 1 {
				state = "failure"
			}
			ip := fmt.Sprintf("22.0.0.%d", w)
			for i := 0; i < ids; i++ {
				if err := g.Check(ip, fmt.Sprintf("conflict-%d", i), state, now); err == nil {
					mu.Lock()
					acceptedStates[i][state] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for i, states := range acceptedStates {
		if len(states) > 1 {
			t.Fatalf("measurement conflict-%d accepted both terminal states", i)
		}
	}
	if g.TrackedClients() == 0 {
		t.Fatal("no rate state tracked")
	}
	g.Prune(now.Add(2 * time.Hour))
	if g.TrackedClients() != 0 {
		t.Fatalf("prune left %d clients tracked", g.TrackedClients())
	}
}
