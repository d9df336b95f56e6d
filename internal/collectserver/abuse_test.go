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

// TestAbuseGuardPrune pins what a serving node's maintenance tick relies on:
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
		if trackedClients(g) != 20 {
			t.Fatalf("%s: tracked clients=%d before prune", tc.name, trackedClients(g))
		}
		g.Prune(base.Add(tc.pruneAfter))
		if got := trackedClients(g); got != tc.wantTracked {
			t.Fatalf("%s: prune left %d clients, want %d", tc.name, got, tc.wantTracked)
		}
	}
}

func TestAbuseGuardDefaults(t *testing.T) {
	g := NewAbuseGuard(AbuseGuardConfig{})
	if g.cfg != DefaultAbuseGuardConfig() {
		t.Fatalf("config %+v, want the defaults", g.cfg)
	}
	// Submissions without a client IP skip rate limiting, and the guard
	// holds no state for them. Conflicting terminal states are the store's
	// to refuse, not the guard's.
	now := time.Now()
	for i := 0; i <= g.cfg.MaxSubmissionsPerWindow; i++ {
		if err := g.Check("", "m1", []string{"success", "failure"}[i%2], now); err != nil {
			t.Fatalf("submission %d without a client IP: %v", i, err)
		}
	}
	if n := trackedClients(g); n != 0 {
		t.Fatalf("guard tracks %d clients, want 0", n)
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

// TestAbuseGuardConcurrent exercises the sharded guard from many goroutines:
// per-client rate limits must hold exactly under concurrency. (For each
// measurement at most one terminal state is ever accepted; that race is the
// store's, in results.TestFirstTerminalWinsConcurrent.)
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

	if trackedClients(g) != 1 {
		t.Fatalf("%d clients tracked, want 1", trackedClients(g))
	}
	g.Prune(now.Add(2 * time.Hour))
	if trackedClients(g) != 0 {
		t.Fatalf("prune left %d clients tracked", trackedClients(g))
	}
}

// trackedClients counts the client IPs the guard holds rate state for.
func trackedClients(g *AbuseGuard) int {
	total := 0
	for i := range g.rate {
		sh := &g.rate[i]
		sh.mu.Lock()
		total += len(sh.buckets)
		sh.mu.Unlock()
	}
	return total
}
