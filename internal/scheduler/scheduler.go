// Package scheduler implements the coordination server's task scheduling
// (§5.3). Scheduling serves two purposes: matching tasks to client
// capabilities (the script mechanism only runs on Chrome; clients that stay
// on the origin page longer can run more tasks) and concentrating
// measurements of the same target across many clients in a short window so
// the detection algorithm can compare regions ("if 100 clients measure the
// same URL within 60 seconds of each other and the only clients that report
// failure are 10 clients in Pakistan, then we can draw much stronger
// conclusions").
//
// The scheduler is the front door for every page view, so Assign is built to
// scale with the ingest tier rather than serialize on one mutex:
//
//   - Candidate pools are precompiled per (pattern, browser family) at
//     task-set install (pipeline.CompiledTaskSet), so a pick indexes a
//     prebuilt slice instead of filtering candidates per call.
//   - The focus pattern is derived from the assignment time — the index of
//     the QuorumWindow-sized window since the scheduler's first assignment —
//     with no lock at all.
//   - Coverage balancing is per-region by definition, so coverage state is
//     sharded by region: each region shard keeps its own counts plus a
//     per-family min-heap of the least-covered schedulable patterns
//     (O(log P) on record, O(1) on read). Clients from different regions
//     never contend.
//   - Each Assign derives a private splitmix64 RNG from the atomic ID
//     counter, so random choices never touch shared state.
//
// The steady-state candidate-pick path performs zero heap allocations.
package scheduler

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/pipeline"
	"encore/internal/stats"
)

// ClientInfo is what the coordination server knows about a requesting client
// when it assigns tasks.
type ClientInfo struct {
	Region geo.CountryCode
	// Browser is parsed from the User-Agent header.
	Browser core.BrowserFamily
	// ExpectedDwellSeconds estimates how long the client will stay on the
	// origin page; §6.2 finds 45% of visitors stay longer than 10 seconds
	// and 35% longer than a minute.
	ExpectedDwellSeconds float64
}

// Config parameterizes the scheduler.
type Config struct {
	// QuorumWindow is how long the scheduler keeps steering clients to the
	// same focus pattern before rotating to the next one.
	QuorumWindow time.Duration
	// Seed drives the scheduler's random choices.
	Seed uint64
}

const (
	// secondsPerTask is the budget assumed per measurement task when
	// deciding how many tasks an idle client can run.
	secondsPerTask = 10
	// maxTasksPerClient caps assignments per page view.
	maxTasksPerClient = 5
)

// DefaultConfig returns scheduling parameters matching the paper.
func DefaultConfig() Config {
	return Config{
		QuorumWindow: 60 * time.Second,
		Seed:         1,
	}
}

// controlSet bundles an installed control task set with its diversion
// fraction so SetControlTasks can swap both atomically.
type controlSet struct {
	compiled *pipeline.CompiledTaskSet
	fraction float64
}

// Scheduler assigns measurement tasks to clients. It is safe for concurrent
// use; see the package comment for how contention is resolved before it
// reaches shared structures.
type Scheduler struct {
	cfg Config
	// windowNanos caches cfg.QuorumWindow in nanoseconds for the lock-free
	// focus computation.
	windowNanos int64

	// nextID seeds both measurement IDs and the per-call RNGs;
	// totalAssigned counts every assignment. Both are atomics.
	nextID        atomic.Uint64
	totalAssigned atomic.Int64

	// epochNanos anchors focus rotation at the first assignment's timestamp
	// (set once with a compare-and-swap; zero means unset).
	epochNanos atomic.Int64

	// compiled is the immutable pick index of the regular task set; control
	// holds the swappable control set.
	compiled *pipeline.CompiledTaskSet
	control  atomic.Pointer[controlSet]

	// lexRank, familyMembers, and schedulable are derived from compiled once:
	// the coverage tie-break ranks, the per-family heap seeds, and which
	// patterns any family can measure at all.
	lexRank       []int32
	familyMembers [][]int32
	schedulable   []bool

	// shards maps geo.CountryCode -> *regionShard. Region sets are small and
	// stable after warm-up, so the read path is a lock-free sync.Map hit.
	shards sync.Map

	// Federation state (see coverage.go): scheduleHash fingerprints the
	// pattern set + quorum window for gossip compatibility checks; recorded
	// versions the local coverage contribution (bumped per recorded regular
	// assignment); remoteVersions tracks the highest merged version per
	// remote origin, guarded by remoteMu.
	scheduleHash   uint64
	recorded       atomic.Uint64
	remoteMu       sync.Mutex
	remoteVersions map[string]uint64
}

// New creates a scheduler over a generated task set.
func New(tasks *pipeline.TaskSet, cfg Config) *Scheduler {
	if cfg.QuorumWindow <= 0 {
		cfg.QuorumWindow = 60 * time.Second
	}
	compiled := pipeline.Compile(tasks)
	s := &Scheduler{
		cfg:            cfg,
		windowNanos:    cfg.QuorumWindow.Nanoseconds(),
		compiled:       compiled,
		lexRank:        compiled.LexRanks(),
		remoteVersions: make(map[string]uint64),
	}
	s.scheduleHash = computeScheduleHash(compiled.PatternKeys(), s.windowNanos)
	s.familyMembers = compiled.FamilyMembers(s.lexRank)
	s.schedulable = make([]bool, compiled.NumPatterns())
	for _, members := range s.familyMembers {
		for _, p := range members {
			s.schedulable[p] = true
		}
	}
	return s
}

// SetControlTasks installs a control task set (testbed targets and
// known-unfiltered resources); that fraction of clients is diverted to it for
// soundness validation (§7.1; the paper used roughly 30%). The compiled set
// is swapped in atomically, so installation never blocks concurrent
// assignment.
func (s *Scheduler) SetControlTasks(control *pipeline.TaskSet, fraction float64) {
	if control == nil {
		s.control.Store(&controlSet{fraction: fraction})
		return
	}
	s.control.Store(&controlSet{compiled: pipeline.Compile(control), fraction: fraction})
}

// newMeasurementID mints a unique measurement identifier. It is lock-free:
// the sequence number comes from an atomic counter and the suffix is a
// splitmix64 hash of the sequence and seed (deterministic for a given seed,
// but mintable without any scheduling lock).
func (s *Scheduler) newMeasurementID() string {
	n := s.nextID.Add(1)
	return fmt.Sprintf("m-%08d-%04x", n, splitmix64(n^(s.cfg.Seed<<17))&0xffff)
}

// splitmix64 is the SplitMix64 finalizer, used to derive ID suffixes and
// per-assignment RNG seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// focusIndex returns the pattern index currently receiving concentrated
// measurements. The focus is a pure function of time: the rotation epoch is
// anchored at the first assignment, and the focus advances one pattern per
// elapsed QuorumWindow — no lock, no shared rotation state. (Unlike the old
// mutex scheduler, whose window restarted whenever an assignment observed it
// expired, rotation is wall-clock aligned: under sparse arrivals several
// windows may elapse unobserved. Under arrivals denser than the window the
// two schedules coincide.)
func (s *Scheduler) focusIndex(now time.Time) int {
	n := s.compiled.NumPatterns()
	if n == 0 {
		return -1
	}
	t := now.UnixNano()
	anchor := s.epochNanos.Load()
	if anchor == 0 {
		if s.epochNanos.CompareAndSwap(0, t) {
			anchor = t
		} else {
			anchor = s.epochNanos.Load()
		}
	}
	elapsed := t - anchor
	if elapsed < 0 {
		elapsed = 0
	}
	return int((elapsed / s.windowNanos) % int64(n))
}

// FocusPattern returns the pattern key the scheduler concentrates
// measurements on at the given time ("" when the task set is empty). It is
// lock-free and safe to poll from monitoring endpoints: reading never
// installs the rotation anchor, so before the first assignment it reports
// the pattern the first assignment will focus on.
func (s *Scheduler) FocusPattern(now time.Time) string {
	n := s.compiled.NumPatterns()
	if n == 0 {
		return ""
	}
	anchor := s.epochNanos.Load()
	if anchor == 0 {
		return s.compiled.PatternKey(0)
	}
	elapsed := now.UnixNano() - anchor
	if elapsed < 0 {
		elapsed = 0
	}
	return s.compiled.PatternKey(int((elapsed / s.windowNanos) % int64(n)))
}

// PatternKeys returns the regular task set's pattern keys in scheduling
// (first-seen) order — the cyclic order focus rotation follows.
func (s *Scheduler) PatternKeys() []string {
	return s.compiled.PatternKeys()
}

// targetKey identifies a (mechanism, resource) pair within one page view so
// Assign never hands the identical measurement to a client twice. A struct
// key compares without the per-pick string concatenation the old map key
// paid.
type targetKey struct {
	typ core.TaskType
	url string
}

// Assign returns the tasks the client should run during this page view. The
// number of tasks scales with the client's expected dwell time; every client
// able to run at least one task receives one.
func (s *Scheduler) Assign(client ClientInfo, now time.Time) []core.Task {
	return s.AssignInto(client, now, nil)
}

// AssignInto is Assign appending into a caller-provided buffer. Drivers that
// own a per-worker buffer (load harnesses, custom handler loops) can reuse
// one task slice per worker instead of allocating per page view; the stock
// coordination server handlers call Assign, whose returned slice escapes to
// the caller and so cannot be pooled.
func (s *Scheduler) AssignInto(client ClientInfo, now time.Time, buf []core.Task) []core.Task {
	rng := stats.RNGFrom(splitmix64(s.nextID.Add(1) ^ (s.cfg.Seed << 17)))

	budget := 1
	if client.ExpectedDwellSeconds > secondsPerTask {
		budget = int(client.ExpectedDwellSeconds / secondsPerTask)
	}
	if budget > maxTasksPerClient {
		budget = maxTasksPerClient
	}

	ctrl := s.control.Load()
	useControl := ctrl != nil && ctrl.compiled != nil && ctrl.compiled.Len() > 0 && rng.Bool(ctrl.fraction)
	if !useControl && s.compiled.Len() == 0 {
		return buf
	}

	// The shard is created lazily, at the first recorded assignment: clients
	// that end up with zero tasks (incompatible browser, failed control pick)
	// must not leave phantom regions in the coverage snapshot.
	var shard *regionShard
	var seenBuf [8]targetKey
	seen := seenBuf[:0]
	assigned := 0
	for assigned < budget {
		var cand pipeline.Candidate
		if useControl {
			c, ok := pickAny(ctrl.compiled, client.Browser, &rng)
			if !ok || seenContains(seen, c) {
				break
			}
			cand = c
			if shard == nil {
				shard = s.shard(client.Region)
			}
			// Control patterns usually live outside the regular set; when one
			// overlaps it, count it against the regular coverage so balancing
			// sees it, as the old combined counts did.
			if p, ok := s.compiled.PatternIndex(c.PatternKey); ok {
				shard.record(p, s)
			} else {
				shard.recordExtra(c.PatternKey)
			}
		} else {
			// Prefer the current focus pattern (quorum scheduling); fall back
			// to the pattern with the fewest assignments from the client's
			// region. Both branches honour browser capabilities via the
			// precompiled pools and perform no heap allocations.
			fi := s.focusIndex(now)
			if pool := s.focusPool(fi, client.Browser); len(pool) > 0 {
				c := pool[rng.Intn(len(pool))]
				if seenContains(seen, c) {
					break // avoid assigning the identical measurement twice in one view
				}
				cand = c
				if shard == nil {
					shard = s.shard(client.Region)
				}
				shard.record(fi, s)
			} else {
				if len(s.familyMembers[pipeline.FamilyIndex(client.Browser)]) == 0 {
					break // no pattern this family can measure
				}
				if shard == nil {
					shard = s.shard(client.Region)
				}
				c, picked, dup := shard.pickBalanced(s, client.Browser, &rng, seen)
				if dup || !picked {
					break
				}
				cand = c
			}
		}
		seen = append(seen, targetKey{typ: cand.Type, url: cand.TargetURL})
		task := cand.Task(s.newMeasurementID(), useControl)
		task.Created = now
		task.TimeoutMillis = secondsPerTask * 1000 * 3
		buf = append(buf, task)
		assigned++
		s.totalAssigned.Add(1)
	}
	return buf
}

// focusPool returns the focus pattern's pool for the family (nil when there
// is no focus).
func (s *Scheduler) focusPool(fi int, family core.BrowserFamily) []pipeline.Candidate {
	if fi < 0 {
		return nil
	}
	return s.compiled.Pool(fi, family)
}

// seenContains reports whether the candidate's (mechanism, resource) pair is
// already in the page view's seen buffer.
func seenContains(seen []targetKey, c pipeline.Candidate) bool {
	key := targetKey{typ: c.Type, url: c.TargetURL}
	for _, k := range seen {
		if k == key {
			return true
		}
	}
	return false
}

// PickCandidate runs one steady-state pick exactly as Assign would — focus
// first, then the region's least-covered pattern — and records the assignment
// in the region's coverage state, but mints no task and allocates nothing. It
// exists so monitoring probes and the bench/ ledger (scheduler.pick_ns) can
// exercise (and verify) the allocation-free pick path; picks made here count
// toward TotalAssignments and coverage like real assignments.
func (s *Scheduler) PickCandidate(client ClientInfo, now time.Time) (pipeline.Candidate, bool) {
	rng := stats.RNGFrom(splitmix64(s.nextID.Add(1) ^ (s.cfg.Seed << 17)))
	fi := s.focusIndex(now)
	if pool := s.focusPool(fi, client.Browser); len(pool) > 0 {
		cand := pool[rng.Intn(len(pool))]
		s.shard(client.Region).record(fi, s)
		s.totalAssigned.Add(1)
		return cand, true
	}
	if len(s.familyMembers[pipeline.FamilyIndex(client.Browser)]) == 0 {
		return pipeline.Candidate{}, false
	}
	cand, picked, _ := s.shard(client.Region).pickBalanced(s, client.Browser, &rng, nil)
	if !picked {
		return pipeline.Candidate{}, false
	}
	s.totalAssigned.Add(1)
	return cand, true
}

// pickAny selects a control candidate uniformly from the compiled control
// set, honouring browser capabilities.
func pickAny(c *pipeline.CompiledTaskSet, family core.BrowserFamily, rng *stats.RNG) (pipeline.Candidate, bool) {
	n := c.NumPatterns()
	if n == 0 {
		return pipeline.Candidate{}, false
	}
	start := rng.Intn(n)
	for i := 0; i < n; i++ {
		p := (start + i) % n
		if pool := c.Pool(p, family); len(pool) > 0 {
			return pool[rng.Intn(len(pool))], true
		}
	}
	return pipeline.Candidate{}, false
}

// shard returns the coverage shard for a region, creating it on first use.
func (s *Scheduler) shard(region geo.CountryCode) *regionShard {
	if v, ok := s.shards.Load(region); ok {
		return v.(*regionShard)
	}
	v, _ := s.shards.LoadOrStore(region, newRegionShard(s))
	return v.(*regionShard)
}

// Assignments returns how many tasks have been assigned for a pattern from a
// region, for coverage reporting and tests. It reads only the region's shard.
func (s *Scheduler) Assignments(pattern string, region geo.CountryCode) int {
	v, ok := s.shards.Load(region)
	if !ok {
		return 0
	}
	shard := v.(*regionShard)
	shard.mu.Lock()
	defer shard.mu.Unlock()
	if p, ok := s.compiled.PatternIndex(pattern); ok {
		return int(shard.counts[p]) + shard.extra[pattern]
	}
	return shard.extra[pattern]
}

// TotalAssignments returns the total number of tasks assigned so far. It
// reads an atomic counter and never touches coverage shards, so monitoring
// endpoints can poll it under load.
func (s *Scheduler) TotalAssignments() int {
	return int(s.totalAssigned.Load())
}

// RegionCoverage is one region's coverage snapshot.
type RegionCoverage struct {
	Region geo.CountryCode `json:"region"`
	// Assigned maps pattern key -> assignments from this region; patterns
	// with zero assignments are omitted.
	Assigned map[string]int `json:"assigned"`
	// Global maps pattern key -> merged assignments over every federated
	// origin (local plus gossiped peers). Omitted entirely when no remote
	// state has been merged, so standalone snapshots are unchanged.
	Global map[string]int `json:"global,omitempty"`
	// Min and Max are the extreme merged assignment counts over the
	// schedulable regular patterns (those at least one browser family can
	// measure) — the balance the per-region least-covered index maintains.
	// Standalone they are the extremes of the local counts.
	Min int `json:"min"`
	Max int `json:"max"`
}

// CoverageSnapshot returns a per-region copy of the coverage state for
// reports and monitoring, sorted by region.
func (s *Scheduler) CoverageSnapshot() []RegionCoverage {
	return s.CoverageSnapshotInto(nil)
}

// CoverageSnapshotInto is CoverageSnapshot writing into a caller-provided
// buffer, reusing entries (and their maps) from previous snapshots. Polling
// paths — /coverage.json, healthz, load harness progress loops — snapshot
// continuously, and the full per-call copy made this an allocation hot spot;
// reusing one buffer per poller makes the steady state allocation-free once
// the region set stabilizes. Each shard is locked only long enough to read
// its counters.
func (s *Scheduler) CoverageSnapshotInto(buf []RegionCoverage) []RegionCoverage {
	out := buf[:0]
	s.shards.Range(func(key, value any) bool {
		shard := value.(*regionShard)
		if len(out) < cap(out) {
			out = out[:len(out)+1]
		} else {
			out = append(out, RegionCoverage{})
		}
		rc := &out[len(out)-1]
		rc.Region = key.(geo.CountryCode)
		rc.Min, rc.Max = 0, 0
		if rc.Assigned == nil {
			rc.Assigned = make(map[string]int)
		} else {
			clear(rc.Assigned)
		}
		shard.mu.Lock()
		federated := len(shard.remote) > 0
		if !federated {
			rc.Global = nil
		} else if rc.Global == nil {
			rc.Global = make(map[string]int)
		} else {
			clear(rc.Global)
		}
		for pattern, n := range shard.extra {
			rc.Assigned[pattern] = n
		}
		first := true
		for p, n := range shard.counts {
			if n > 0 {
				rc.Assigned[s.compiled.PatternKey(p)] += int(n)
			}
			g := shard.global[p]
			if federated && g > 0 {
				rc.Global[s.compiled.PatternKey(p)] += int(g)
			}
			if !s.schedulable[p] {
				continue
			}
			if first || int(g) < rc.Min {
				rc.Min = int(g)
			}
			if first || int(g) > rc.Max {
				rc.Max = int(g)
			}
			first = false
		}
		shard.mu.Unlock()
		return true
	})
	sort.Slice(out, func(a, b int) bool { return out[a].Region < out[b].Region })
	return out
}

// regionShard holds one region's coverage state: per-pattern assignment
// counts plus, per browser family, a min-heap of the patterns that family
// can measure, ordered by (count, lexicographic key). Recording an
// assignment is O(log P) per family; reading the least-covered pattern is
// O(1). Shards of different regions share nothing, so clients from different
// regions never contend.
type regionShard struct {
	mu     sync.Mutex
	counts []int32
	// global[p] is pattern p's merged assignment count over every origin:
	// this coordinator's own counts plus the pointwise-max contribution of
	// each federated peer in remote. The balancing heaps order on global, so
	// a federated coordinator steers new clients at the pattern least covered
	// worldwide; standalone, global mirrors counts exactly.
	global []int64
	// remote maps origin coordinator -> its merged per-pattern G-counter
	// vector, allocated on the first merge (nil standalone).
	remote map[string][]int64
	// heaps[f] is the family-f min-heap of pattern indices; pos[f][p] is
	// pattern p's position in heaps[f], or -1 when the family cannot measure
	// p.
	heaps [][]int32
	pos   [][]int32
	// extra counts assignments to patterns outside the regular set (control
	// tasks), allocated on first use.
	extra map[string]int
}

func newRegionShard(s *Scheduler) *regionShard {
	n := s.compiled.NumPatterns()
	families := len(s.familyMembers)
	shard := &regionShard{
		counts: make([]int32, n),
		global: make([]int64, n),
		heaps:  make([][]int32, families),
		pos:    make([][]int32, families),
	}
	for f, members := range s.familyMembers {
		// members is ordered by lexicographic rank; with all counts zero
		// that ordering is already a valid min-heap.
		shard.heaps[f] = append([]int32(nil), members...)
		shard.pos[f] = make([]int32, n)
		for p := range shard.pos[f] {
			shard.pos[f][p] = -1
		}
		for i, p := range shard.heaps[f] {
			shard.pos[f][p] = int32(i)
		}
	}
	return shard
}

// pickBalanced picks a candidate from the region's least-covered pattern for
// the family and records the assignment, all under one acquisition of the
// shard lock, so concurrent same-region picks each see the previous pick's
// count — the max−min ≤ 1 balance invariant holds no matter how clients
// interleave. When the chosen candidate is already in the page view's seen
// buffer it reports dup=true and records nothing (the caller stops the
// view). picked=false means the family has no schedulable pattern.
func (r *regionShard) pickBalanced(s *Scheduler, family core.BrowserFamily, rng *stats.RNG, seen []targetKey) (cand pipeline.Candidate, picked, dup bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	heap := r.heaps[pipeline.FamilyIndex(family)]
	if len(heap) == 0 {
		return pipeline.Candidate{}, false, false
	}
	p := int(heap[0])
	pool := s.compiled.Pool(p, family)
	cand = pool[rng.Intn(len(pool))]
	if seenContains(seen, cand) {
		return cand, false, true
	}
	r.recordLocked(p, s)
	return cand, true, false
}

// record bumps a pattern's assignment count and restores the heap invariant
// in every family heap containing the pattern.
func (r *regionShard) record(pattern int, s *Scheduler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordLocked(pattern, s)
}

// recordLocked is record with r.mu already held. Besides the local count it
// bumps the merged global total (the heaps' sort key) and the scheduler's
// coverage version, which gossip digests use to skip already-seen state.
func (r *regionShard) recordLocked(pattern int, s *Scheduler) {
	r.counts[pattern]++
	r.global[pattern]++
	s.recorded.Add(1)
	for f := range r.heaps {
		if i := r.pos[f][pattern]; i >= 0 {
			r.siftDown(f, int(i), s.lexRank)
		}
	}
}

// recordExtra counts an assignment to a pattern outside the regular set.
func (r *regionShard) recordExtra(pattern string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.extra == nil {
		r.extra = make(map[string]int)
	}
	r.extra[pattern]++
}

// less orders heap entries by (merged global assignment count, lexicographic
// key rank). Standalone, global equals the local counts; federated, ordering
// on the merged totals is what keeps balance global across coordinators.
func (r *regionShard) less(a, b int32, lexRank []int32) bool {
	if r.global[a] != r.global[b] {
		return r.global[a] < r.global[b]
	}
	return lexRank[a] < lexRank[b]
}

// siftDown restores the min-heap property downward from index i of family
// heap f, keeping pos in sync. Counts only ever increase, so a bumped entry
// can only move toward the leaves.
func (r *regionShard) siftDown(f, i int, lexRank []int32) {
	heap := r.heaps[f]
	n := len(heap)
	for {
		smallest := i
		if l := 2*i + 1; l < n && r.less(heap[l], heap[smallest], lexRank) {
			smallest = l
		}
		if rt := 2*i + 2; rt < n && r.less(heap[rt], heap[smallest], lexRank) {
			smallest = rt
		}
		if smallest == i {
			return
		}
		heap[i], heap[smallest] = heap[smallest], heap[i]
		r.pos[f][heap[i]] = int32(i)
		r.pos[f][heap[smallest]] = int32(smallest)
		i = smallest
	}
}
