package results

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/wire"
)

// defaultShardCount is the number of lock shards a Store uses. Submissions
// hash by measurement ID, so concurrent writers from many clients land on
// different shards and never serialize behind a single store-wide mutex the
// way the original single-RWMutex store did.
const defaultShardCount = 32

// storeEntry is one stored measurement: what is its own inline — the insertion
// sequence number is what lets snapshots reconstruct insertion order across
// shards — and handles into its shard's tables for what it shares with others.
// At 72 bytes and two pointers against a Measurement's 192 and nine, it is
// what the store costs to hold and the collector's GC to mark.
type storeEntry struct {
	id       string
	seq      uint64
	duration float64
	received time.Time
	task     uint32 // handle into storeShard.tasks
	client   uint32 // handle into storeShard.clients
	state    uint8  // index into stateOf
}

// stateOf decodes storeEntry.state; stateCode is its inverse, 0 for a state
// that is not valid.
var stateOf = [...]core.State{1: core.StateInit, 2: core.StateSuccess, 3: core.StateFailure}

func stateCode(s core.State) uint8 { return uint8(slices.Index(stateOf[1:], s) + 1) }

// completed mirrors Measurement.Completed.
func (e *storeEntry) completed() bool { return e.state >= 2 }

// measurement rebuilds the Measurement an entry stands for; it allocates nothing.
func (e *storeEntry) measurement(tasks *chunked[taskBody], clients *chunked[clientCtx]) Measurement {
	t, c := tasks.at(int(e.task)), clients.at(int(e.client))
	return Measurement{
		MeasurementID:  e.id,
		PatternKey:     t.pattern,
		TargetURL:      t.url,
		TaskType:       t.typ,
		State:          stateOf[e.state],
		DurationMillis: e.duration,
		ClientIP:       c.ip,
		Region:         geo.CountryCode(c.region),
		Browser:        c.browser,
		OriginSite:     c.origin,
		Control:        t.control,
		Received:       e.received,
	}
}

// storeShard holds the measurements whose IDs hash to it and the two tables
// their entries point into. Tables are per shard so the lock a commit already
// holds is all the synchronization they need; a value used in several shards
// is stored once in each. ids finds an entry through a 4-byte word holding
// its index and a tag of its ID's hash, checked against the entry's own ID
// string, so the ID is held once and the index costs 4 bytes a slot.
type storeShard struct {
	mu      sync.RWMutex
	ids     idIndex // measurement ID -> index into entries
	entries chunked[storeEntry]
	tasks   valueTable[taskBody]
	clients valueTable[clientCtx]
	prev    Measurement // the replaced record an upgrade shows its observers
}

// at returns the measurement stored at index i; sh.mu must be held.
func (sh *storeShard) at(i int) Measurement {
	return sh.entries.at(i).measurement(&sh.tasks.vals, &sh.clients.vals)
}

// idAt returns the ID stored at index i, and hashAt its idHash; sh.mu must
// be held.
func (sh *storeShard) idAt(i uint32) string   { return sh.entries.at(int(i)).id }
func (sh *storeShard) hashAt(i uint32) uint64 { return idHash(sh.idAt(i)) }

// each calls fn for the shard's measurements in insertion order until fn
// returns false, reporting whether it ran to the end; sh.mu must be held.
func (sh *storeShard) each(fn func(Measurement) bool) bool {
	for i := 0; i < sh.entries.n; i++ {
		if !fn(sh.at(i)) {
			return false
		}
	}
	return true
}

// CommitObserver receives every effective store mutation. Commit is called
// with prev == nil for a first insert and with the replaced record for an
// in-place upgrade; ignored downgrades (terminal → init) produce no call.
// prev points at memory the store reuses: it is valid until Commit returns.
// The store invokes Commit synchronously under the shard lock that serialized
// the mutation, so for any one measurement ID the observer sees transitions
// in exactly the order the store applied them — the property both the
// incremental Aggregator's retract-then-add accounting and the WAL's replay
// ordering rely on. Implementations must be fast, must not block, and must
// not call back into the store. See docs/ARCHITECTURE.md for the full
// observer contract.
type CommitObserver interface {
	Commit(prev *Measurement, cur Measurement)
}

// CommitSeqObserver was an observer extension receiving the insertion
// sequence number alone.
//
// Deprecated: the store no longer dispatches CommitWithSeq; an observer that
// needs positions implements CommitStreamObserver. Kept only because the
// benchmark module's traced replay still names it.
type CommitSeqObserver interface {
	CommitObserver
	CommitWithSeq(seq uint64, prev *Measurement, cur Measurement)
}

// CommitStreamObserver is the fullest observer extension: alongside the
// insertion sequence number it receives the commit-stream position — a dense
// counter bumped once per effective commit, so unlike the insertion sequence
// (which an in-place upgrade reuses) every insert AND every upgrade gets a
// fresh, unique number. The federation forwarder keys its durable forward
// cursor on this position ("everything at or below N has been acknowledged
// upstream"), and the WAL persists it so a restarted forwarder can resume
// the upstream stream exactly where the acknowledged prefix ends. Within one
// shard the stream positions of successive commits are handed out under the
// shard lock immediately before notification, so an observer sees one
// measurement's positions strictly increase; across shards positions are
// totally ordered but notifications may arrive slightly out of order (two
// shards racing), which cursor maintenance must tolerate. The usual observer
// contract (fast, non-blocking, no re-entry) applies.
type CommitStreamObserver interface {
	CommitObserver
	CommitStream(commitSeq, insertSeq uint64, prev *Measurement, cur Measurement)
}

// Store is an in-memory, concurrency-safe measurement store with JSON-lines
// import/export. Internally it is sharded by measurement ID: each shard has
// its own lock, so concurrent Add/Get calls for different measurements do not
// contend. Observably it preserves insertion order: All, Filter, and
// WriteJSONL return measurements in the order they were first added (the
// order is that of first insertion even when a record is later upgraded to a
// terminal state). Concurrent Adds have no defined relative order, but each
// lands at a unique position.
type Store struct {
	shards []storeShard
	mask   uint32
	// count is the number of live records; seq hands out insertion sequence
	// numbers; commits hands out commit-stream positions (dense: every
	// effective insert and upgrade gets a fresh one, where seq is reused by
	// upgrades). All are atomics so Len and ordering never take shard locks.
	count   atomic.Int64
	seq     atomic.Uint64
	commits atomic.Uint64
	// observers are notified of every effective insert or upgrade. The slice
	// is written only before the store sees concurrent traffic (AddObserver)
	// and read on every commit without further synchronization.
	observers []storeObserver
}

// storeObserver is one attached observer with its resolved dispatch: stream
// is non-nil when the observer wants the positions (CommitStreamObserver).
type storeObserver struct {
	plain  CommitObserver
	stream CommitStreamObserver
}

// NewStore returns an empty store with the default shard count.
func NewStore() *Store { return NewStoreWithShards(defaultShardCount) }

// NewStoreWithShards returns an empty store with n lock shards (rounded up to
// a power of two; n < 1 means the default).
func NewStoreWithShards(n int) *Store {
	if n < 1 {
		n = defaultShardCount
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Store{shards: make([]storeShard, size), mask: uint32(size - 1)}
}

// ShardHash returns the FNV-1a hash of key used to pick lock shards. The
// store, the task index and the WAL key their shards on it by measurement
// ID; it is exported so collectserver's AbuseGuard shards its per-client
// rate buckets with the same distribution.
func ShardHash(key string) uint32 { return fnv1a(fnvOffset, key) }

// fnv1a folds key — a string or its undecoded bytes — into the FNV-1a hash h.
func fnv1a[S text](h uint32, key S) uint32 {
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

const fnvOffset = 2166136261

// ErrConflictingData is returned for a terminal record naming a measurement
// the store already holds in the other terminal state. §8: a client must not
// be able to report both success and failure for one measurement, so the
// first terminal state wins. The rule is the store's, so it holds on every
// lane that commits and, because recovery rebuilds the store, across
// restarts.
var ErrConflictingData = errors.New("results: conflicting terminal states for measurement")

// ConflictError reports the members of one AddBatch call that were refused
// with ErrConflictingData, which it wraps.
type ConflictError struct {
	// Indices are the refused members' positions in the batch, ascending.
	Indices []int
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("results: %d batch members conflict with a recorded terminal state", len(e.Indices))
}

func (e *ConflictError) Unwrap() error { return ErrConflictingData }

// Add stores a measurement. A new ID is appended. For a stored ID the
// terminal state wins over init (clients submit init first and a terminal
// state later): init is upgraded in place, keeping its position in insertion
// order, a later init is ignored, and the same terminal state sent again
// replaces the record. A terminal record in the other state is refused with
// ErrConflictingData and changes nothing.
func (s *Store) Add(m Measurement) error {
	if err := m.Validate(); err != nil {
		return err
	}
	sh := &s.shards[ShardHash(m.MeasurementID)&s.mask]
	h := idHash(m.MeasurementID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !s.addLocked(sh, h, &m) {
		return ErrConflictingData
	}
	return nil
}

// AddObserver attaches a commit observer alongside any already attached — the
// collection server runs the incremental Aggregator, the durability WAL and
// the forwarder side by side this way (node.Open fixes their order).
// Observers are notified in attachment order. It must be called before the
// store handles concurrent traffic; attaching an observer to a store that
// already holds measurements does not replay them — use Aggregator.Backfill
// for that. Observers implementing CommitStreamObserver receive CommitStream
// instead of Commit.
func (s *Store) AddObserver(obs CommitObserver) {
	if obs == nil {
		return
	}
	stream, _ := obs.(CommitStreamObserver)
	s.observers = append(s.observers, storeObserver{plain: obs, stream: stream})
}

// notify dispatches one committed transition to every attached observer;
// called under the shard lock that serialized the commit.
func (s *Store) notify(commitSeq, seq uint64, prev *Measurement, cur Measurement) {
	for i := range s.observers {
		if o := &s.observers[i]; o.stream != nil {
			o.stream.CommitStream(commitSeq, seq, prev, cur)
		} else {
			o.plain.Commit(prev, cur)
		}
	}
}

// addLocked inserts or upgrades one measurement whose ID's idHash is h;
// sh.mu must be held. It reports false when it refuses the record as
// conflicting with the stored terminal state (see Add). The commit-stream
// position is assigned here, inside the critical section and immediately
// before notification, so within one shard positions increase in exactly the
// order observers see the commits.
func (s *Store) addLocked(sh *storeShard, h uint64, m *Measurement) bool {
	e := storeEntry{id: m.MeasurementID, duration: m.DurationMillis, received: m.Received, state: stateCode(m.State)}
	idx, exists := lookupID(&sh.ids, h, m.MeasurementID, sh.idAt)
	var old *storeEntry
	if exists {
		old = sh.entries.at(int(idx))
		if old.completed() && old.state != e.state {
			// A terminal state is final: a later init is ignored, a later
			// terminal state in the other outcome refused.
			return !e.completed()
		}
	}
	e.task = intern(&sh.tasks, taskBody{pattern: m.PatternKey, url: m.TargetURL, typ: m.TaskType, control: m.Control})
	e.client = intern(&sh.clients, clientCtx{ip: m.ClientIP, region: string(m.Region), origin: m.OriginSite, browser: m.Browser})
	if exists {
		// Materialize the pre-upgrade record only when someone will see it,
		// into the shard's scratch slot: the pointer escapes through the
		// observer interface, so a local would be heap-allocated per upgrade.
		var prevp *Measurement
		if len(s.observers) > 0 {
			sh.prev = sh.at(int(idx))
			prevp = &sh.prev
		}
		e.id, e.seq = old.id, old.seq
		*old = e
		s.notify(s.commits.Add(1), e.seq, prevp, *m)
		return true
	}
	e.seq = s.seq.Add(1)
	sh.entries.push(e)
	sh.ids.put(h, sh.hashAt)
	s.count.Add(1)
	s.notify(s.commits.Add(1), e.seq, nil, *m)
	return true
}

// replay applies one recovered WAL record, preserving its original insertion
// sequence number so the rebuilt store's snapshot order matches the store
// that wrote the log. It is the recovery path's insert primitive: observers
// are not notified (recovery attaches them afterwards, and the analysis tier
// cold-starts via Aggregator.Backfill), validation is skipped (the records
// were validated before they were committed and logged; only a state, task type or
// browser family no live store can hold is refused), and the caller is responsible for advancing the
// store's sequence counter past every replayed seq (see OpenStoreFromWAL).
// The record is read in place: only its ID, and what the shard's tables had
// not seen, is copied out of the decode buffer. Safe for concurrent use by
// the per-WAL-shard replay goroutines: records of one measurement ID must be
// (and are) replayed in log order by a single goroutine.
//
// Like validation, Add's first-terminal-state rule is not applied again: a
// log holds only what its writer's store committed, so a log written by this
// store never holds a conflicting terminal record, and one written before the
// store owned the rule (when a later terminal state replaced an earlier one
// on lanes that skipped the guard) replays to exactly the state its writer
// served. wire's record_retraction.bin golden frame is that case.
func (s *Store) replay(seq uint64, v *wire.RecordView) error {
	e := storeEntry{seq: seq, duration: v.DurationMillis, received: v.Received, state: stateCode(v.State)}
	if e.state == 0 {
		return fmt.Errorf("results: replaying %q: invalid state %q", v.MeasurementID, v.State)
	}
	if err := validKinds(v.TaskType, v.Browser); err != nil {
		return fmt.Errorf("replaying %q: %w", v.MeasurementID, err)
	}
	sh := &s.shards[fnv1a(fnvOffset, v.MeasurementID)&s.mask]
	h := maphash.Bytes(idSeed, v.MeasurementID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e.task = intern(&sh.tasks, taskKey[[]byte]{pattern: v.PatternKey, url: v.TargetURL, typ: v.TaskType, control: v.Control})
	e.client = intern(&sh.clients, clientKey[[]byte]{ip: v.ClientIP, region: v.Region, origin: v.OriginSite, browser: v.Browser})
	if idx, ok := lookupID(&sh.ids, h, v.MeasurementID, sh.idAt); ok {
		old := sh.entries.at(int(idx))
		e.id, e.seq = old.id, old.seq // upgrades keep the insert's sequence number
		*old = e
		return nil
	}
	e.id = string(v.MeasurementID)
	sh.entries.push(e)
	sh.ids.put(h, sh.hashAt)
	s.count.Add(1)
	return nil
}

// batchHashes is the batch size whose shard grouping AddBatch keeps on the
// stack; the collector commits in chunks of this size.
const batchHashes = 256

// AddBatch stores a batch of measurements with Add's semantics, taking each
// shard lock at most once; members of one ID commit in batch order. It
// returns how many members committed. Invalid members are skipped — a
// poisoned batch member must not discard well-formed submissions queued
// alongside it — and the first validation error is returned. Members refused
// as conflicting are reported by index in a *ConflictError (joined with the
// validation error when there is one). A batch of at most batchHashes
// members that refuses nothing allocates nothing of its own.
func (s *Store) AddBatch(ms []Measurement) (int, error) {
	// One counting pass orders the valid members by shard, each shard's in
	// batch order: order[ends[k-1]:ends[k]] are shard k's. The ID hashes are
	// taken here, outside the shard locks.
	var (
		hashBuf  [batchHashes]uint64
		shardBuf [batchHashes]uint32
		orderBuf [batchHashes]uint32
		endBuf   [defaultShardCount]int
	)
	hashes, shardOf, order, ends := hashBuf[:], shardBuf[:], orderBuf[:], endBuf[:]
	if len(ms) > batchHashes {
		hashes, shardOf, order = make([]uint64, len(ms)), make([]uint32, len(ms)), make([]uint32, len(ms))
	}
	if len(s.shards) > len(ends) {
		ends = make([]int, len(s.shards))
	}
	ends = ends[:len(s.shards)]
	const invalid = ^uint32(0)
	var firstErr error
	for i := range ms {
		shardOf[i] = invalid
		if err := ms[i].Validate(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		hashes[i], shardOf[i] = idHash(ms[i].MeasurementID), ShardHash(ms[i].MeasurementID)&s.mask
		ends[shardOf[i]]++
	}
	start := 0
	for k, n := range ends {
		ends[k] = start // placing advances it to the shard's end
		start += n
	}
	for i, k := range shardOf[:len(ms)] {
		if k != invalid {
			order[ends[k]] = uint32(i)
			ends[k]++
		}
	}
	stored := 0
	var refused []int
	begin := 0
	for k, end := range ends {
		if begin == end {
			continue
		}
		sh := &s.shards[k]
		sh.mu.Lock()
		for _, i := range order[begin:end] {
			if s.addLocked(sh, hashes[i], &ms[i]) {
				stored++
			} else {
				refused = append(refused, int(i))
			}
		}
		sh.mu.Unlock()
		begin = end
	}
	if refused == nil {
		return stored, firstErr
	}
	slices.Sort(refused)
	var err error = &ConflictError{Indices: refused}
	if firstErr != nil {
		err = errors.Join(firstErr, err)
	}
	return stored, err
}

// Len returns the number of stored measurements. It reads an atomic counter
// and never blocks behind writers.
func (s *Store) Len() int { return int(s.count.Load()) }

// shardRun is one shard's part of a snapshot: a copy of its entries and views
// of the tables they point into.
type shardRun struct {
	entries []storeEntry
	tasks   chunked[taskBody]
	clients chunked[clientCtx]
}

// ordered calls fn with every stored measurement and its insertion sequence
// number, in insertion order, until fn fails. Each shard is read-locked only
// while its entries are copied: the result is a consistent snapshot per shard
// (entries added concurrently may or may not appear) and fn may block. Shard
// runs are sorted, so global order is a merge: the lowest head comes next.
func (s *Store) ordered(fn func(seq uint64, m Measurement) error) error {
	runs := make([]shardRun, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		run := shardRun{slices.Concat(sh.entries.chunks...), sh.tasks.vals.view(), sh.clients.vals.view()}
		sh.mu.RUnlock()
		// A live shard is in sequence order (the sequence is taken under its
		// lock); one replayed from several WAL shards' goroutines need not be.
		bySeq := func(a, b storeEntry) int { return cmp.Compare(a.seq, b.seq) }
		if !slices.IsSortedFunc(run.entries, bySeq) {
			slices.SortFunc(run.entries, bySeq)
		}
		runs[i] = run
	}
	for {
		var best *shardRun
		for i := range runs {
			if r := &runs[i]; len(r.entries) > 0 && (best == nil || r.entries[0].seq < best.entries[0].seq) {
				best = r
			}
		}
		if best == nil {
			return nil
		}
		e := &best.entries[0]
		if err := fn(e.seq, e.measurement(&best.tasks, &best.clients)); err != nil {
			return err
		}
		best.entries = best.entries[1:]
	}
}

// All returns a copy of every measurement in insertion order. The returned
// slice is owned by the caller and safe to mutate concurrently with further
// store writes: Measurement holds no shared references.
func (s *Store) All() []Measurement {
	out := make([]Measurement, 0, s.Len())
	_ = s.ordered(func(_ uint64, m Measurement) error {
		out = append(out, m)
		return nil
	})
	return out
}

// Get returns the measurement with the given ID.
func (s *Store) Get(id string) (Measurement, bool) {
	sh := &s.shards[ShardHash(id)&s.mask]
	h := idHash(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	idx, ok := lookupID(&sh.ids, h, id, sh.idAt)
	if !ok {
		return Measurement{}, false
	}
	return sh.at(int(idx)), true
}

// Range streams every measurement to fn without the defensive copy All
// makes, so a read-only consumer such as Stats can walk
// an arbitrarily large store in O(1) extra memory. fn returning false stops
// the iteration early. Iteration visits shards one at a time under their read
// locks — within a shard measurements appear in insertion order, but the
// order across shards is unspecified (use All/WriteJSONL when global
// insertion order matters). fn is invoked under a shard read lock and must
// not call back into the store or block.
func (s *Store) Range(fn func(Measurement) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		more := sh.each(fn)
		sh.mu.RUnlock()
		if !more {
			return
		}
	}
}

// WriteJSONL serializes the store as JSON lines in insertion order.
func (s *Store) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	return s.ordered(func(_ uint64, m Measurement) error { return enc.Encode(m) })
}

// ReadJSONL loads measurements from JSON lines, appending to the store.
func (s *Store) ReadJSONL(r io.Reader) error {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var m Measurement
		if err := json.Unmarshal(line, &m); err != nil {
			return fmt.Errorf("results: decoding line: %w", err)
		}
		if err := s.Add(m); err != nil {
			return err
		}
	}
	return scanner.Err()
}

// Stats computes campaign statistics over one consistent snapshot of the
// store, so the totals and per-country counts agree with each other even when
// writers are running concurrently.
func (s *Store) Stats() CampaignStats {
	clients := make(map[string]bool)
	regions := make(map[geo.CountryCode]bool)
	byCountry := make(map[geo.CountryCode]int)
	total := 0
	s.Range(func(m Measurement) bool {
		total++
		if m.ClientIP != "" {
			clients[m.ClientIP] = true
		}
		if m.Region != "" {
			regions[m.Region] = true
		}
		byCountry[m.Region]++
		return true
	})
	return CampaignStats{
		Measurements:    total,
		DistinctClients: len(clients),
		Countries:       len(regions),
		ByCountry:       byCountry,
	}
}
