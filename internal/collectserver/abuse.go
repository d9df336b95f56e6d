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
// AbuseGuard is the first line of defence the collection server applies on
// its own: per-client submission rate limiting. The other §8 rule — a client
// cannot report both success and failure for one measurement — is the
// store's (results.ErrConflictingData), which holds it on every lane and
// across restarts.

// ErrRateLimited is returned by the guard for a client over its rate.
var ErrRateLimited = errors.New("collectserver: client exceeded submission rate limit")

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

// guardShardCount is the number of lock shards for the per-client rate
// state. Checks from different clients hash to different shards and proceed
// in parallel instead of serializing behind one guard-wide mutex.
const guardShardCount = 16

// rateShard holds the rate buckets for the client IPs that hash to it.
type rateShard struct {
	mu      sync.Mutex
	buckets map[string]*rateBucket
}

// AbuseGuard tracks per-client submission counts. It is safe for concurrent
// use; rate state is sharded by client IP so unrelated clients never
// contend. It holds nothing per measurement ID.
type AbuseGuard struct {
	cfg  AbuseGuardConfig
	rate [guardShardCount]rateShard
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
	return g
}

// Check decides whether a submission from clientIP should be accepted now,
// counting it against the client's window. A nil error means accept; a
// submission without a client IP is not rate limited. measurementID and state
// are not consulted — conflicting terminal states are the store's to refuse —
// and stay only so existing callers compile unchanged.
func (g *AbuseGuard) Check(clientIP, measurementID, state string, now time.Time) error {
	if clientIP == "" {
		return nil
	}
	sh := &g.rate[results.ShardHash(clientIP)%guardShardCount]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.buckets[clientIP]
	if !ok || now.Sub(b.windowStart) >= g.cfg.Window {
		b = &rateBucket{windowStart: now}
		sh.buckets[clientIP] = b
	}
	if b.count >= g.cfg.MaxSubmissionsPerWindow {
		return ErrRateLimited
	}
	b.count++
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
