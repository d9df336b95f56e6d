package results

import (
	"sync"
	"sync/atomic"
	"time"

	"encore/internal/core"
)

// TaskIndex maps measurement IDs to the tasks they belong to. The
// coordination server registers every task it hands out; the collection
// server consults the index to attribute incoming submissions (which carry
// only the measurement ID) to the pattern, target, and task type they
// measured. It sits on the per-submission attribution hot path, so like the
// Store it is sharded by measurement-ID hash: registrations and lookups for
// different measurements take different locks and never contend, and Len
// reads an atomic counter without blocking behind writers. A deployment hands
// out a few hundred distinct tasks under millions of IDs, so an ID keeps a
// handle into its shard's table of distinct task bodies, the creation instant,
// and the ID string Lookup returns — which a collector storing the measurement
// shares instead of the copy it decoded. Like a Store shard, a shard keeps
// these in a chunked table found through an idIndex, whose 4-byte words hold
// a handle and a tag of the ID's hash rather than a second copy of the ID.
// A Register that doubles the index rebuilds it under the shard's write lock,
// so a Lookup never sees it half built. It is safe for concurrent use.
type TaskIndex struct {
	shards []taskIndexShard
	mask   uint32
	count  atomic.Int64
}

// taskIndexShard holds the tasks whose measurement IDs hash to it.
type taskIndexShard struct {
	mu     sync.RWMutex
	ids    idIndex // measurement ID -> index into refs
	refs   chunked[taskRef]
	bodies valueTable[indexedTask]
}

// idAt returns the ID stored at index i, and hashAt its idHash; sh.mu must
// be held.
func (sh *taskIndexShard) idAt(i uint32) string   { return sh.refs.at(int(i)).id }
func (sh *taskIndexShard) hashAt(i uint32) uint64 { return idHash(sh.idAt(i)) }

// taskRef is what the index keeps per measurement ID.
type taskRef struct {
	id          string // the ID Register was given, shared with Lookup's results
	createdSec  int64  // Task.Created as time.Unix arguments: exact over time.Time's
	createdNsec uint32 // whole range, the zero value included
	body        uint32 // handle into taskIndexShard.bodies
}

// NewTaskIndex returns an empty index with the default shard count.
func NewTaskIndex() *TaskIndex {
	return &TaskIndex{shards: make([]taskIndexShard, defaultShardCount), mask: defaultShardCount - 1}
}

// Register records a task under its measurement ID. Registering a task with
// an empty ID is a no-op.
func (ti *TaskIndex) Register(t core.Task) {
	if t.MeasurementID == "" {
		return
	}
	sh := &ti.shards[ShardHash(t.MeasurementID)&ti.mask]
	h := idHash(t.MeasurementID)
	sh.mu.Lock()
	ref := taskRef{id: t.MeasurementID, createdSec: t.Created.Unix(), createdNsec: uint32(t.Created.Nanosecond())}
	t.MeasurementID, t.Created = "", time.Time{}
	ref.body = intern(&sh.bodies, indexedTask(t))
	if i, exists := lookupID(&sh.ids, h, ref.id, sh.idAt); exists {
		old := sh.refs.at(int(i))
		ref.id = old.id
		*old = ref
	} else {
		sh.refs.push(ref)
		sh.ids.put(h, sh.hashAt)
		ti.count.Add(1)
	}
	sh.mu.Unlock()
}

// Lookup returns the task registered under the measurement ID: equal to the
// task Register was given (Created by time.Time.Equal, in UTC), with the
// index's own ID string.
func (ti *TaskIndex) Lookup(measurementID string) (core.Task, bool) {
	sh := &ti.shards[ShardHash(measurementID)&ti.mask]
	h := idHash(measurementID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i, ok := lookupID(&sh.ids, h, measurementID, sh.idAt)
	if !ok {
		return core.Task{}, false
	}
	ref := sh.refs.at(int(i))
	t := core.Task(*sh.bodies.vals.at(int(ref.body)))
	t.MeasurementID, t.Created = ref.id, time.Unix(ref.createdSec, int64(ref.createdNsec)).UTC()
	return t, true
}

// Len returns the number of registered tasks without taking any shard lock.
func (ti *TaskIndex) Len() int { return int(ti.count.Load()) }
