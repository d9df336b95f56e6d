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
// shares instead of the copy it decoded. It is safe for concurrent use.
type TaskIndex struct {
	shards []taskIndexShard
	mask   uint32
	count  atomic.Int64
}

// taskIndexShard holds the tasks whose measurement IDs hash to it.
type taskIndexShard struct {
	mu     sync.RWMutex
	tasks  map[string]taskRef
	bodies valueTable[indexedTask]
}

// taskRef is what the index keeps per measurement ID.
type taskRef struct {
	id          string // the map key's own string
	createdSec  int64  // Task.Created as time.Unix arguments: exact over time.Time's
	createdNsec uint32 // whole range, the zero value included
	body        uint32 // handle into taskIndexShard.bodies
}

// NewTaskIndex returns an empty index with the default shard count.
func NewTaskIndex() *TaskIndex {
	ti := &TaskIndex{shards: make([]taskIndexShard, defaultShardCount), mask: defaultShardCount - 1}
	for i := range ti.shards {
		ti.shards[i].tasks = make(map[string]taskRef)
	}
	return ti
}

// shardFor hashes a measurement ID to its shard.
func (ti *TaskIndex) shardFor(id string) *taskIndexShard {
	return &ti.shards[ShardHash(id)&ti.mask]
}

// Register records a task under its measurement ID. Registering a task with
// an empty ID is a no-op.
func (ti *TaskIndex) Register(t core.Task) {
	if t.MeasurementID == "" {
		return
	}
	sh := ti.shardFor(t.MeasurementID)
	sh.mu.Lock()
	ref, exists := sh.tasks[t.MeasurementID]
	if !exists {
		ti.count.Add(1)
		ref.id = t.MeasurementID
	}
	ref.createdSec, ref.createdNsec = t.Created.Unix(), uint32(t.Created.Nanosecond())
	t.MeasurementID, t.Created = "", time.Time{}
	ref.body = intern(&sh.bodies, indexedTask(t))
	sh.tasks[ref.id] = ref
	sh.mu.Unlock()
}

// Lookup returns the task registered under the measurement ID: equal to the
// task Register was given (Created by time.Time.Equal, in UTC), with the
// index's own ID string.
func (ti *TaskIndex) Lookup(measurementID string) (core.Task, bool) {
	sh := ti.shardFor(measurementID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ref, ok := sh.tasks[measurementID]
	if !ok {
		return core.Task{}, false
	}
	t := core.Task(*sh.bodies.vals.at(int(ref.body)))
	t.MeasurementID, t.Created = ref.id, time.Unix(ref.createdSec, int64(ref.createdNsec)).UTC()
	return t, true
}

// Len returns the number of registered tasks without taking any shard lock.
func (ti *TaskIndex) Len() int { return int(ti.count.Load()) }
