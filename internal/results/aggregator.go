package results

import (
	"sync"
	"time"
)

// Aggregator is the online aggregation tier: it maintains the pattern×region
// group counters that Aggregate computes from a snapshot — plus fixed-size
// time-window buckets for longitudinal analysis — incrementally, as
// measurements commit. Detection over an Aggregator is O(groups) instead of
// O(store): the collector updates one group cell per accepted measurement
// under a per-shard lock, and analysis passes read the finished counters
// instead of rescanning (and defensively copying) every stored measurement.
//
// Wiring: attach it to a Store with Store.AddObserver before traffic starts.
// Both collectserver commit calls then feed it — Accept's one-record
// Store.Add and the batch endpoint's Store.AddBatch — because the store
// reports every effective insert and in-place upgrade,
// including the retracted previous record, so the Aggregator's counters track
// the store's deduplicated content exactly. For a cold start over a store
// that was loaded before the Aggregator existed (e.g. from a JSONL file),
// use Backfill.
//
// Consistency: each commit updates its group atomically under that group's
// shard lock, so Groups and Windowed always see internally-consistent cells.
// Cross-cell reads taken while writers are running reflect a moment that may
// interleave with in-flight commits; quiesce the ingest path (stop the
// submitters) for reads that must match a batch recomputation bit-for-bit.
//
// Dirty-group contract: every commit marks the affected pattern dirty.
// DrainDirtyPatterns atomically hands the accumulated dirty set to the caller
// and resets it, which is what lets Detector.DetectIncremental recompute
// verdicts only for patterns whose counters changed since the last call. A
// pattern dirtied between a drain and the subsequent counter read is simply
// reported again on the next drain — recomputing fresh data twice is safe,
// losing a dirty mark is not, and the per-shard lock ordering (mark before
// the commit's lock is released) makes loss impossible.
type Aggregator struct {
	cfg      AggregatorConfig
	patterns internTable
	regions  internTable
	shards   []aggShard
	mask     uint32
}

// AggregatorConfig parameterizes an Aggregator.
type AggregatorConfig struct {
	// Shards is the number of lock shards the group cells are spread over
	// (rounded up to a power of two; < 1 means the default of 16). Group
	// cardinality is patterns × regions, far below measurement cardinality,
	// so fewer shards than the Store's suffice.
	Shards int
	// Window is the time-bucket size maintained for the longitudinal view;
	// 0 disables windowed tracking (Windowed then returns nil).
	Window time.Duration
	// Epoch anchors the window grid: buckets cover [Epoch+k·Window,
	// Epoch+(k+1)·Window). The zero value anchors at the Unix epoch. Set it
	// to a campaign's start (or the earliest measurement of a backfilled
	// store) to reproduce AggregateWindowed's earliest-aligned output
	// exactly; an epoch-anchored grid is used because it is stable under
	// streaming arrival — an earlier-timestamped late arrival never shifts
	// existing buckets.
	Epoch time.Time
}

// defaultAggShards is the default number of group shards.
const defaultAggShards = 16

// aggCell is one pattern×region group maintained online.
type aggCell struct {
	group Group
	// buckets holds the windowed counters keyed by window-grid index; nil
	// when windowed tracking is disabled.
	buckets map[int64]*Group
}

// aggShard holds the cells whose interned keys hash to it, plus the shard's
// share of the dirty-pattern set.
type aggShard struct {
	mu    sync.Mutex
	cells map[uint64]*aggCell
	dirty map[string]struct{}
}

// internTable assigns dense uint32 IDs to strings so hot-path group lookups
// hash one integer instead of re-hashing pattern and region strings on every
// pass. It is read-mostly: after warm-up every lookup takes only the RLock.
type internTable struct {
	mu  sync.RWMutex
	ids map[string]uint32
}

func (t *internTable) id(s string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	id = uint32(len(t.ids))
	t.ids[s] = id
	return id
}

// NewAggregator returns an empty aggregation tier; zero config fields fall
// back to defaults (16 shards, no windowed tracking, Unix-epoch grid).
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	n := cfg.Shards
	if n < 1 {
		n = defaultAggShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	a := &Aggregator{cfg: cfg, shards: make([]aggShard, size), mask: uint32(size - 1)}
	for i := range a.shards {
		a.shards[i].cells = make(map[uint64]*aggCell)
		a.shards[i].dirty = make(map[string]struct{})
	}
	return a
}

// Config returns the aggregator's effective configuration.
func (a *Aggregator) Config() AggregatorConfig { return a.cfg }

// epoch returns the window-grid anchor.
func (a *Aggregator) epoch() time.Time {
	if a.cfg.Epoch.IsZero() {
		return time.Unix(0, 0).UTC()
	}
	return a.cfg.Epoch
}

// mix is a 64-bit finalizer (splitmix64) spreading interned key IDs across
// shards.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardFor maps an interned cell key to its shard.
func (a *Aggregator) shardFor(key uint64) *aggShard {
	return &a.shards[uint32(mix(key))&a.mask]
}

// Commit implements CommitObserver: it retracts the replaced record's
// contribution (if any) and adds the new one. Control measurements are
// excluded, as in Aggregate. The common case — an upgrade landing in the same
// group as the record it replaces — is applied as one locked delta.
func (a *Aggregator) Commit(prev *Measurement, cur Measurement) {
	if prev != nil {
		if prev.Control || cur.Control ||
			prev.PatternKey != cur.PatternKey || prev.Region != cur.Region {
			// Rare: a replacement that changes cells (or control status).
			// Apply as two independent single-cell deltas.
			a.apply(*prev, -1)
			a.apply(cur, 1)
			return
		}
		a.replaceSameCell(*prev, cur)
		return
	}
	a.apply(cur, 1)
}

// apply folds one measurement into (sign=+1) or out of (sign=-1) its cell.
func (a *Aggregator) apply(m Measurement, sign int) {
	if m.Control {
		return
	}
	key, patternKey := a.internKey(m)
	sh := a.shardFor(key)
	sh.mu.Lock()
	cell := a.cellLocked(sh, key, m)
	cell.group.apply(m, sign)
	a.applyBucketLocked(cell, m, sign)
	if cell.group.Total == 0 {
		delete(sh.cells, key)
	}
	sh.dirty[patternKey] = struct{}{}
	sh.mu.Unlock()
}

// replaceSameCell retracts prev and adds cur in one critical section — the
// hot upgrade path (init → terminal within one group) takes the shard lock
// once and never exposes a transient state with the measurement missing.
func (a *Aggregator) replaceSameCell(prev, cur Measurement) {
	key, patternKey := a.internKey(cur)
	sh := a.shardFor(key)
	sh.mu.Lock()
	cell := a.cellLocked(sh, key, cur)
	cell.group.apply(prev, -1)
	cell.group.apply(cur, 1)
	a.applyBucketLocked(cell, prev, -1)
	a.applyBucketLocked(cell, cur, 1)
	if cell.group.Total == 0 {
		delete(sh.cells, key)
	}
	sh.dirty[patternKey] = struct{}{}
	sh.mu.Unlock()
}

// internKey interns the measurement's pattern and region once and packs the
// dense IDs into the cell key.
func (a *Aggregator) internKey(m Measurement) (key uint64, patternKey string) {
	pid := a.patterns.id(m.PatternKey)
	rid := a.regions.id(string(m.Region))
	return uint64(pid)<<32 | uint64(rid), m.PatternKey
}

// cellLocked returns the cell for key, creating it if needed; sh.mu held.
func (a *Aggregator) cellLocked(sh *aggShard, key uint64, m Measurement) *aggCell {
	cell, ok := sh.cells[key]
	if !ok {
		cell = &aggCell{group: *newGroup(GroupKey{PatternKey: m.PatternKey, Region: m.Region})}
		if a.cfg.Window > 0 {
			cell.buckets = make(map[int64]*Group)
		}
		sh.cells[key] = cell
	}
	return cell
}

// applyBucketLocked folds the measurement into its time-window bucket.
func (a *Aggregator) applyBucketLocked(cell *aggCell, m Measurement, sign int) {
	if a.cfg.Window <= 0 || m.Received.IsZero() {
		return
	}
	idx := windowIndex(m.Received, a.epoch(), a.cfg.Window)
	b, ok := cell.buckets[idx]
	if !ok {
		b = newGroup(cell.group.Key)
		cell.buckets[idx] = b
	}
	b.apply(m, sign)
	if b.Total == 0 {
		delete(cell.buckets, idx)
	}
}

// Groups returns the current aggregation, deep-copied and sorted by pattern
// then region — the same shape and order Aggregate returns from a snapshot.
// Cost is O(groups), independent of how many measurements built them.
func (a *Aggregator) Groups() []Group {
	return a.groupsWhere(nil)
}

// GroupsForPatterns returns the current groups of just the given patterns,
// in Aggregate order. This is the read DetectIncremental uses to recompute
// only dirtied patterns.
func (a *Aggregator) GroupsForPatterns(patterns []string) []Group {
	if len(patterns) == 0 {
		return nil
	}
	want := make(map[string]bool, len(patterns))
	for _, p := range patterns {
		want[p] = true
	}
	return a.groupsWhere(want)
}

// groupsWhere collects cells whose pattern is in want (nil means all).
func (a *Aggregator) groupsWhere(want map[string]bool) []Group {
	var out []Group
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for _, cell := range sh.cells {
			if want != nil && !want[cell.group.Key.PatternKey] {
				continue
			}
			out = append(out, cell.group.clone())
		}
		sh.mu.Unlock()
	}
	sortGroups(out)
	return out
}

// GroupCount returns the number of live pattern×region cells.
func (a *Aggregator) GroupCount() int {
	n := 0
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		n += len(sh.cells)
		sh.mu.Unlock()
	}
	return n
}

// DrainDirtyPatterns returns the patterns whose counters changed since the
// previous drain (or since the aggregator was created) and resets the dirty
// set. The returned order is unspecified. Draining is destructive — the set
// goes to whichever caller drains first — so an aggregator should have a
// single incremental consumer (see Detector.DetectIncremental).
func (a *Aggregator) DrainDirtyPatterns() []string {
	var out []string
	seen := make(map[string]bool)
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for p := range sh.dirty {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		if len(sh.dirty) > 0 {
			sh.dirty = make(map[string]struct{})
		}
		sh.mu.Unlock()
	}
	return out
}

// Windowed assembles the longitudinal view maintained online: one
// WindowedGroups per grid bucket from the earliest to the latest occupied
// window (empty interior windows included), each sorted like Aggregate —
// the same shape AggregateWindowedAt(store.All(), window, epoch) computes
// from a snapshot. window must equal the configured Window; Windowed returns
// nil otherwise (and always when windowed tracking is disabled).
func (a *Aggregator) Windowed(window time.Duration) []WindowedGroups {
	if window <= 0 || window != a.cfg.Window {
		return nil
	}
	occupied := make(map[int64][]Group)
	var minIdx, maxIdx int64
	seen := false
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for _, cell := range sh.cells {
			for idx, b := range cell.buckets {
				if !seen || idx < minIdx {
					minIdx = idx
				}
				if !seen || idx > maxIdx {
					maxIdx = idx
				}
				seen = true
				occupied[idx] = append(occupied[idx], b.clone())
			}
		}
		sh.mu.Unlock()
	}
	if !seen {
		return nil
	}
	out := make([]WindowedGroups, 0, maxIdx-minIdx+1)
	for idx := minIdx; idx <= maxIdx; idx++ {
		start := a.epoch().Add(time.Duration(idx) * window)
		wg := WindowedGroups{Window: Window{Start: start, End: start.Add(window)}}
		if groups, ok := occupied[idx]; ok {
			sortGroups(groups)
			wg.Groups = groups
		}
		out = append(out, wg)
	}
	return out
}

// Backfill folds an existing store into the aggregator with one goroutine
// per store shard — the cold-start path for analysis over a JSONL-loaded
// store. It returns the number of store records folded (control measurements
// are folded but excluded from the group counters, as everywhere else). The
// store must be quiescent and must not already have this aggregator attached
// as its observer (attach afterwards), otherwise measurements are
// double-counted.
func (a *Aggregator) Backfill(store *Store) int {
	var wg sync.WaitGroup
	counts := make([]int, len(store.shards))
	for i := range store.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := &store.shards[i]
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			sh.each(func(m Measurement) bool {
				a.Commit(nil, m)
				counts[i]++
				return true
			})
		}(i)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// DirtyPatternCount reports how many patterns are currently marked dirty,
// without draining them; exposed for monitoring and tests.
func (a *Aggregator) DirtyPatternCount() int {
	seen := make(map[string]bool)
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for p := range sh.dirty {
			seen[p] = true
		}
		sh.mu.Unlock()
	}
	return len(seen)
}

var _ CommitObserver = (*Aggregator)(nil)
