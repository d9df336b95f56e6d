package collectserver

import (
	"errors"
	"sync"
	"time"

	"encore/internal/results"
)

// §8 notes that "attackers may attempt to submit poisoned measurement results
// to alter the conclusions that Encore draws about censorship" and that
// reputation mechanisms can raise the bar without eliminating the problem.
// AbuseGuard implements the first line of defence the collection server can
// apply on its own: per-client submission rate limiting and rejection of
// conflicting terminal states for the same measurement (a client cannot
// report both success and failure for one measurement ID).

// Errors returned by the guard.
var (
	ErrRateLimited     = errors.New("collectserver: client exceeded submission rate limit")
	ErrConflictingData = errors.New("collectserver: conflicting terminal states for measurement")
)

// AbuseGuardConfig parameterizes the guard.
type AbuseGuardConfig struct {
	// MaxSubmissionsPerWindow caps how many submissions one client IP may
	// make per window; a real browser runs at most a handful of tasks per
	// page view.
	MaxSubmissionsPerWindow int
	// Window is the rate-limiting window.
	Window time.Duration
}

// DefaultAbuseGuardConfig allows a generous but bounded submission rate.
func DefaultAbuseGuardConfig() AbuseGuardConfig {
	return AbuseGuardConfig{MaxSubmissionsPerWindow: 120, Window: time.Hour}
}

// guardShardCount is the number of lock shards for both the per-client rate
// state and the per-measurement terminal state. Checks from different clients
// (and for different measurements) hash to different shards and proceed in
// parallel instead of serializing behind one guard-wide mutex.
const guardShardCount = 16

// rateShard holds the rate buckets for the client IPs that hash to it.
type rateShard struct {
	mu      sync.Mutex
	buckets map[string]*rateBucket
}

// terminalShard holds the first-terminal-state records for the measurement
// IDs that hash to it. An entry must outlive the store record it vouches for,
// so it is never pruned: it is one byte per ID, not a string.
type terminalShard struct {
	mu     sync.Mutex
	states map[string]bool // measurement ID -> first terminal state seen was "success"
}

// AbuseGuard tracks per-client submission counts and per-measurement terminal
// states. It is safe for concurrent use; rate and terminal state are each
// sharded by key so unrelated clients never contend.
type AbuseGuard struct {
	cfg AbuseGuardConfig

	rate     [guardShardCount]rateShard
	terminal [guardShardCount]terminalShard
}

type rateBucket struct {
	windowStart time.Time
	count       int
}

// NewAbuseGuard creates a guard; zero config fields fall back to defaults.
func NewAbuseGuard(cfg AbuseGuardConfig) *AbuseGuard {
	def := DefaultAbuseGuardConfig()
	if cfg.MaxSubmissionsPerWindow <= 0 {
		cfg.MaxSubmissionsPerWindow = def.MaxSubmissionsPerWindow
	}
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	g := &AbuseGuard{cfg: cfg}
	for i := range g.rate {
		g.rate[i].buckets = make(map[string]*rateBucket)
	}
	for i := range g.terminal {
		g.terminal[i].states = make(map[string]bool)
	}
	return g
}

// guardShardIndex hashes a key to a shard index, sharing the store's shard
// hash.
func guardShardIndex(key string) int {
	return int(results.ShardHash(key) % guardShardCount)
}

// Check decides whether a submission from clientIP for measurementID with the
// given state (as a string; init states never conflict) should be accepted
// now. A nil error means accept.
func (g *AbuseGuard) Check(clientIP, measurementID, state string, now time.Time) error {
	if clientIP != "" {
		sh := &g.rate[guardShardIndex(clientIP)]
		sh.mu.Lock()
		b, ok := sh.buckets[clientIP]
		if !ok || now.Sub(b.windowStart) >= g.cfg.Window {
			b = &rateBucket{windowStart: now}
			sh.buckets[clientIP] = b
		}
		if b.count >= g.cfg.MaxSubmissionsPerWindow {
			sh.mu.Unlock()
			return ErrRateLimited
		}
		b.count++
		sh.mu.Unlock()
	}

	if state == "success" || state == "failure" {
		sh := &g.terminal[guardShardIndex(measurementID)]
		sh.mu.Lock()
		success := state == "success"
		prev, ok := sh.states[measurementID]
		if ok && prev != success {
			sh.mu.Unlock()
			return ErrConflictingData
		}
		if !ok {
			sh.states[measurementID] = success
		}
		sh.mu.Unlock()
	}
	return nil
}

// Prune discards rate buckets older than the window and caps memory for
// long-running collectors.
func (g *AbuseGuard) Prune(now time.Time) {
	for i := range g.rate {
		sh := &g.rate[i]
		sh.mu.Lock()
		for ip, b := range sh.buckets {
			if now.Sub(b.windowStart) >= g.cfg.Window {
				delete(sh.buckets, ip)
			}
		}
		sh.mu.Unlock()
	}
}

// TrackedClients reports how many client IPs currently have rate state, for
// monitoring.
func (g *AbuseGuard) TrackedClients() int {
	total := 0
	for i := range g.rate {
		sh := &g.rate[i]
		sh.mu.Lock()
		total += len(sh.buckets)
		sh.mu.Unlock()
	}
	return total
}
