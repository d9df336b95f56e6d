package results

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/wire"
)

// The compact store layout (chunked entries, per-shard tables, handles) is an
// implementation detail: everything observable — reads, exports, the observer
// call sequence — must equal what a store holding whole Measurements in a map
// and a slice would show. naiveStore is that store.

// commitEvent is one observer notification, prev copied out of the store's
// scratch slot.
type commitEvent struct {
	commitSeq, seq uint64
	prev           *Measurement
	cur            Measurement
}

func (e commitEvent) String() string {
	prev := "nil"
	if e.prev != nil {
		prev = fmt.Sprintf("%+v", *e.prev)
	}
	return fmt.Sprintf("commit %d seq %d prev %s cur %+v", e.commitSeq, e.seq, prev, e.cur)
}

func (e commitEvent) equal(o commitEvent) bool {
	if e.commitSeq != o.commitSeq || e.seq != o.seq || e.cur != o.cur || (e.prev == nil) != (o.prev == nil) {
		return false
	}
	return e.prev == nil || *e.prev == *o.prev
}

// eventRecorder is a CommitStreamObserver that keeps every notification.
type eventRecorder struct {
	mu     sync.Mutex
	events []commitEvent
}

func (r *eventRecorder) Commit(*Measurement, Measurement) { panic("stream observer got Commit") }

func (r *eventRecorder) CommitStream(commitSeq, seq uint64, prev *Measurement, cur Measurement) {
	ev := commitEvent{commitSeq: commitSeq, seq: seq, cur: cur}
	if prev != nil {
		p := *prev
		ev.prev = &p
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// naiveStore is the reference: whole records in a map, IDs in a slice.
type naiveStore struct {
	recs         map[string]Measurement
	seqs         map[string]uint64
	order        []string
	seq, commits uint64
	events       []commitEvent
}

func newNaiveStore() *naiveStore {
	return &naiveStore{recs: make(map[string]Measurement), seqs: make(map[string]uint64)}
}

func (n *naiveStore) add(m Measurement) error {
	if err := m.Validate(); err != nil {
		return err
	}
	old, ok := n.recs[m.MeasurementID]
	if ok && old.Completed() && old.State != m.State {
		if m.Completed() {
			return ErrConflictingData // the first terminal state wins
		}
		return nil // a terminal state is never downgraded
	}
	ev := commitEvent{cur: m}
	if ok {
		ev.prev = &old
	} else {
		n.seq++
		n.seqs[m.MeasurementID] = n.seq
		n.order = append(n.order, m.MeasurementID)
	}
	n.commits++
	ev.commitSeq, ev.seq = n.commits, n.seqs[m.MeasurementID]
	n.recs[m.MeasurementID] = m
	n.events = append(n.events, ev)
	return nil
}

// addBatch mirrors AddBatch's documented shape: invalid members are skipped,
// the first error reported, and the valid ones commit shard by shard (each
// shard lock is taken once), in batch order within a shard; refused members
// are reported by index.
func (n *naiveStore) addBatch(ms []Measurement) (int, error) {
	var firstErr error
	var valid, refused []int
	for i, m := range ms {
		if err := m.Validate(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		valid = append(valid, i)
	}
	shardOf := func(i int) int { return int(ShardHash(ms[i].MeasurementID) & (defaultShardCount - 1)) }
	slices.SortStableFunc(valid, func(a, b int) int { return shardOf(a) - shardOf(b) })
	for _, i := range valid {
		if n.add(ms[i]) != nil {
			refused = append(refused, i)
		}
	}
	if refused == nil {
		return len(valid), firstErr
	}
	slices.Sort(refused)
	return len(valid) - len(refused), errors.Join(firstErr, &ConflictError{Indices: refused})
}

// refusedIndices returns the members an AddBatch error reports as refused.
func refusedIndices(err error) []int {
	var conflict *ConflictError
	if errors.As(err, &conflict) {
		return conflict.Indices
	}
	return nil
}

// sameOutcome reports whether two Add or AddBatch errors say the same thing:
// both nil, or the same message with the same refused members.
func sameOutcome(got, want error) bool {
	return fmt.Sprint(got) == fmt.Sprint(want) && slices.Equal(refusedIndices(got), refusedIndices(want))
}

func (n *naiveStore) all() []Measurement {
	out := make([]Measurement, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.recs[id])
	}
	return out
}

func (n *naiveStore) wire(t *testing.T) []byte {
	t.Helper()
	var out []byte
	for _, id := range n.order {
		m := n.recs[id]
		var err error
		if out, err = wire.AppendRecordFrame(out, n.seqs[id], n.seqs[id], (*wire.Record)(&m)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// layoutMeasurement draws a record over small pools, so sequences mix fresh
// inserts, in-place upgrades, ignored downgrades, refused conflicting
// terminal states, replacements that change the pattern×region cell,
// control records and shared table values. prefix
// keeps concurrent committers on disjoint IDs.
func layoutMeasurement(rng *rand.Rand, prefix string) Measurement {
	zones := []*time.Location{time.UTC, time.UTC, time.FixedZone("", 5*3600+1800)}
	pattern := rng.Intn(6)
	return Measurement{
		MeasurementID:  fmt.Sprintf("%sm-%03d", prefix, rng.Intn(300)),
		PatternKey:     fmt.Sprintf("domain:site%d.com", pattern),
		TargetURL:      fmt.Sprintf("http://site%d.com/%d.png", pattern, rng.Intn(2)),
		TaskType:       core.TaskTypes()[rng.Intn(3)],
		State:          []core.State{core.StateInit, core.StateSuccess, core.StateFailure}[rng.Intn(3)],
		DurationMillis: float64(rng.Intn(5000)) / 4,
		ClientIP:       fmt.Sprintf("11.0.%d.%d", rng.Intn(2), rng.Intn(20)),
		Region:         []geo.CountryCode{"US", "CN", "PK", "IR", "TR", ""}[rng.Intn(6)],
		Browser:        core.BrowserFamilies()[rng.Intn(4)],
		OriginSite:     []string{"", "a.example.org", "b.example.org"}[rng.Intn(3)],
		Control:        rng.Intn(20) == 0,
		Received:       time.Date(2014, 5, 1, 0, 0, 0, 0, zones[rng.Intn(len(zones))]).Add(time.Duration(rng.Intn(1e6)) * time.Millisecond),
	}
}

// layoutBatch draws a batch, a tenth of whose members are invalid.
func layoutBatch(rng *rand.Rand, prefix string) []Measurement {
	ms := make([]Measurement, 1+rng.Intn(40))
	for i := range ms {
		ms[i] = layoutMeasurement(rng, prefix)
		switch rng.Intn(30) {
		case 0:
			ms[i].MeasurementID = ""
		case 1:
			ms[i].PatternKey = ""
		case 2:
			ms[i].State = "bogus"
		}
	}
	return ms
}

// applyOps drives the same random operations into the store and the model.
func applyOps(t *testing.T, rng *rand.Rand, prefix string, nOps int, s *Store, n *naiveStore) {
	for op := 0; op < nOps; op++ {
		if rng.Intn(2) == 0 {
			m := layoutMeasurement(rng, prefix)
			if rng.Intn(25) == 0 {
				m.State = "bogus"
			}
			if got, want := s.Add(m), n.add(m); !sameOutcome(got, want) {
				t.Errorf("Add(%+v) = %v, model %v", m, got, want)
			}
			continue
		}
		ms := layoutBatch(rng, prefix)
		got, gotErr := s.AddBatch(ms)
		want, wantErr := n.addBatch(ms)
		if got != want || !sameOutcome(gotErr, wantErr) {
			t.Errorf("AddBatch = %d, %v %v; model %d, %v %v", got, gotErr, refusedIndices(gotErr), want, wantErr, refusedIndices(wantErr))
		}
	}
}

func storeWire(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteWire(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var layoutSeeds = []int64{1, 7, 424242}

// TestStoreMatchesNaiveModel holds the store — and the store recovered from
// its WAL — to the model, for one committer: reads, export bytes, and the
// exact observer call sequence (prev and cur values, insertion and
// commit-stream positions).
func TestStoreMatchesNaiveModel(t *testing.T) {
	for _, seed := range layoutSeeds {
		for _, walShards := range []int{8, 64} { // 64 > store shards: replay must restore shard order
			t.Run(fmt.Sprintf("seed=%d/walshards=%d", seed, walShards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				rec := &eventRecorder{}
				model := newNaiveStore()
				live := buildWALStore(t, dir, WALConfig{Shards: walShards, Policy: SyncNone, SegmentBytes: 16 << 10}, func(s *Store) {
					s.AddObserver(rec)
					applyOps(t, rng, "", 400, s, model)
				})

				if len(rec.events) != len(model.events) {
					t.Fatalf("observer saw %d commits, model %d", len(rec.events), len(model.events))
				}
				for i := range rec.events {
					if !rec.events[i].equal(model.events[i]) {
						t.Fatalf("commit %d:\nstore: %v\nmodel: %v", i, rec.events[i], model.events[i])
					}
				}
				if live.Len() != len(model.order) {
					t.Fatalf("Len = %d, model %d", live.Len(), len(model.order))
				}
				if got, want := live.All(), model.all(); !slices.Equal(got, want) {
					t.Fatalf("All() diverged from the model (%d vs %d records)", len(got), len(want))
				}
				for i := 0; i < 300; i++ {
					id := fmt.Sprintf("m-%03d", i)
					got, gotOK := live.Get(id)
					want, wantOK := model.recs[id]
					if gotOK != wantOK || got != want {
						t.Fatalf("Get(%s) = %+v, %v; model %+v, %v", id, got, gotOK, want, wantOK)
					}
				}
				wantWire := model.wire(t)
				if !bytes.Equal(storeWire(t, live), wantWire) {
					t.Fatal("WriteWire bytes diverged from the model")
				}

				recovered, _, err := OpenStoreFromWAL(dir)
				if err != nil {
					t.Fatal(err)
				}
				if recovered.Len() != live.Len() || !bytes.Equal(storeWire(t, recovered), wantWire) {
					t.Fatal("store recovered from the WAL exports different bytes")
				}
				if !bytes.Equal(snapshotJSONL(t, recovered), snapshotJSONL(t, live)) {
					t.Fatal("store recovered from the WAL exports different JSONL")
				}
				// The recovered store keeps working like the live one would.
				applyOps(t, rng, "", 100, recovered, model)
				if !bytes.Equal(storeWire(t, recovered), model.wire(t)) {
					t.Fatal("recovered store diverged from the model after further commits")
				}
			})
		}
	}
}

// TestStoreMatchesNaiveModelConcurrent runs several committers on disjoint ID
// ranges. Global positions interleave, so the comparison is per ID: final
// records, each ID's (prev, cur) sequence, and positions that are unique,
// dense and ordered the way the export is.
func TestStoreMatchesNaiveModelConcurrent(t *testing.T) {
	const committers = 4
	for _, seed := range layoutSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := NewStore()
			rec := &eventRecorder{}
			s.AddObserver(rec)
			models := make([]*naiveStore, committers)
			var wg sync.WaitGroup
			for g := range models {
				models[g] = newNaiveStore()
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					applyOps(t, rand.New(rand.NewSource(seed+int64(g))), fmt.Sprintf("g%d-", g), 150, s, models[g])
				}(g)
			}
			wg.Wait()

			wantEvents := make(map[string][]commitEvent)
			total, commits := 0, 0
			for _, m := range models {
				total += len(m.order)
				commits += len(m.events)
				for _, ev := range m.events {
					wantEvents[ev.cur.MeasurementID] = append(wantEvents[ev.cur.MeasurementID], ev)
				}
				for id, want := range m.recs {
					if got, ok := s.Get(id); !ok || got != want {
						t.Fatalf("Get(%s) = %+v, %v; model %+v", id, got, ok, want)
					}
				}
			}
			if s.Len() != total || len(rec.events) != commits {
				t.Fatalf("Len = %d, %d commits; models %d, %d", s.Len(), len(rec.events), total, commits)
			}
			seen := make(map[uint64]bool)
			cursor := make(map[string]int)
			seqOf := make(map[string]uint64)
			for _, ev := range rec.events {
				if ev.commitSeq < 1 || ev.commitSeq > uint64(commits) || seen[ev.commitSeq] {
					t.Fatalf("commit-stream position %d out of range or repeated", ev.commitSeq)
				}
				seen[ev.commitSeq] = true
				id := ev.cur.MeasurementID
				want := wantEvents[id][cursor[id]]
				cursor[id]++
				want.commitSeq, want.seq = ev.commitSeq, ev.seq // global positions interleave
				if !ev.equal(want) {
					t.Fatalf("%s:\nstore: %v\nmodel: %v", id, ev, want)
				}
				if prior, ok := seqOf[id]; ok && prior != ev.seq {
					t.Fatalf("%s changed insertion sequence %d -> %d", id, prior, ev.seq)
				}
				seqOf[id] = ev.seq
			}
			// The export is in insertion-sequence order and holds what Get holds.
			fr := wire.NewFrameReader(bytes.NewReader(storeWire(t, s)))
			var last uint64
			for n := 0; ; n++ {
				payload, err := fr.Next()
				if err != nil {
					if n != total {
						t.Fatalf("export holds %d records, want %d (%v)", n, total, err)
					}
					break
				}
				_, seq, r, err := wire.DecodeRecord(payload)
				if err != nil {
					t.Fatal(err)
				}
				if seq <= last || seq != seqOf[r.MeasurementID] {
					t.Fatalf("export out of order: seq %d after %d (observer saw %d)", seq, last, seqOf[r.MeasurementID])
				}
				last = seq
			}
		})
	}
}

// liveBytesPer runs fill and returns the live heap it left behind per record.
func liveBytesPer(n int, fill func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fill()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
}

// TestStoreWorstCaseFootprint: when every field of every record is distinct
// the tables share nothing, and holding a record must still cost no more than
// keeping the whole Measurement inline did plus one table slot — interning
// must never cost more than the copy it replaces.
func TestStoreWorstCaseFootprint(t *testing.T) {
	const n = 100_000
	distinct := func(i int) Measurement {
		return Measurement{
			MeasurementID: fmt.Sprintf("id-%07d", i),
			PatternKey:    fmt.Sprintf("domain:s%07d.com", i),
			TargetURL:     fmt.Sprintf("http://s%07d.com/", i),
			State:         core.StateSuccess,
			ClientIP:      fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255),
			Region:        geo.CountryCode(fmt.Sprintf("r%07d", i)),
			OriginSite:    fmt.Sprintf("o%07d.example.org", i),
			Received:      time.Unix(int64(i), 0).UTC(),
		}
	}
	inline := make(map[string]int)
	var entries []struct {
		seq uint64
		m   Measurement
	}
	baseline := liveBytesPer(n, func() {
		for i := 0; i < n; i++ {
			m := distinct(i)
			inline[m.MeasurementID] = len(entries)
			entries = append(entries, struct {
				seq uint64
				m   Measurement
			}{uint64(i), m})
		}
	})
	s := NewStoreWithShards(1) // one shard: the same map and growth phase as the baseline
	got := liveBytesPer(n, func() {
		for i := 0; i < n; i++ {
			if err := s.Add(distinct(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	slot := float64(unsafe.Sizeof(clientCtx{}))
	t.Logf("all-distinct records: %.1f B live per record, inline layout %.1f B", got, baseline)
	if got > baseline+slot {
		t.Fatalf("all-distinct records cost %.1f B each, inline layout %.1f B + one %v B slot", got, baseline, slot)
	}
	runtime.KeepAlive(inline)
	runtime.KeepAlive(entries)
	runtime.KeepAlive(s)
}

// TestCollectorFootprint pins what a collector holds per measurement ID in
// its Store and its TaskIndex together: 2^20 IDs, each registered and then
// committed in a 256-record batch whose records share a client, the Store
// keeping the index's ID string as a collector does.
func TestCollectorFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("holds 2^20 IDs")
	}
	const n, batch = 1 << 20, 256
	// Measured on linux/amd64 with go1.24: 144.6 B per ID. Each idIndex holds
	// 2^15 IDs a shard in 2^16 4-byte words, 8 B per ID; as a map[uint32]uint32
	// it held 18.6 B, and the two came to 165.8 B. A string-keyed map in each
	// of the Store and the TaskIndex, in place of their idIndexes and the
	// TaskIndex's chunked table, held 256.7 B.
	const measured = 144.6
	s, ti := NewStore(), NewTaskIndex()
	load := batchOf(0, batch)
	got := liveBytesPer(n, func() {
		for base := 0; base < n; base += batch {
			for i := range load {
				m := &load[i]
				m.MeasurementID = fmt.Sprintf("m-%08d", base+i)
				ti.Register(core.Task{MeasurementID: m.MeasurementID, Type: m.TaskType, TargetURL: m.TargetURL, PatternKey: m.PatternKey, Created: m.Received})
			}
			if _, err := s.AddBatch(load); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("Store + TaskIndex: %.1f B live per ID", got)
	if got > measured*1.05 {
		t.Errorf("Store + TaskIndex hold %.1f B per ID, want <= %.1f (%.1f measured + 5%%)", got, measured*1.05, measured)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(ti)
}

// TestStoreLayout pins the sizes the per-ID cost of a collector is made of.
func TestStoreLayout(t *testing.T) {
	if got := unsafe.Sizeof(storeEntry{}); got > 72 {
		t.Errorf("storeEntry is %d bytes, want <= 72", got)
	}
	if got := unsafe.Sizeof(taskRef{}); got > 32 {
		t.Errorf("TaskIndex keeps %d bytes per ID, want <= 32", got)
	}
	if word := reflect.TypeOf(idIndex{}.segs).Elem().Elem(); word.Size() != 4 || word.Kind() != reflect.Uint32 {
		t.Errorf("an idIndex word is a %v of %d bytes, want 4 and no pointer", word, word.Size())
	}
	for name, chunk := range map[string]uintptr{
		"entries":  chunkLen * unsafe.Sizeof(storeEntry{}),
		"tasks":    chunkLen * unsafe.Sizeof(taskBody{}),
		"clients":  chunkLen * unsafe.Sizeof(clientCtx{}),
		"taskRefs": chunkLen * unsafe.Sizeof(taskRef{}),
	} {
		if chunk > 32<<10 {
			t.Errorf("a chunk of %s is %d bytes, want a small-object allocation (<= 32 KiB)", name, chunk)
		}
	}
}

// batchOf builds a batch of fresh IDs sharing one client, as one request's
// records do.
func batchOf(base, size int) []Measurement {
	ms := make([]Measurement, size)
	for i := range ms {
		ms[i] = walTestMeasurement(base+i, core.StateInit)
		ms[i].ClientIP, ms[i].Region, ms[i].OriginSite = "10.9.8.7", "US", "origin.example.org"
	}
	return ms
}

// TestStoreInsertAllocations: committing into a large store allocates a
// handful of objects per batch (the shard-index slice, now and then a chunk or
// a map table), never one that grows with the store.
func TestStoreInsertAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1M-record store")
	}
	const preload, batch, runs = 1_000_000, 256, 64
	s := NewStore()
	batches := make([][]Measurement, runs+1)
	for i := range batches {
		batches[i] = batchOf(preload+i*batch, batch)
	}
	sizes := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	largeAllocs := func() (n uint64) {
		metrics.Read(sizes)
		h := sizes[0].Value.Float64Histogram()
		for i, c := range h.Counts {
			if h.Buckets[i] >= 32<<10 {
				n += c
			}
		}
		return n
	}
	load := batchOf(0, batch)
	before := largeAllocs()
	for base := 0; base < preload; base += batch {
		for i := range load {
			load[i].MeasurementID = fmt.Sprintf("wal-%d", base+i)
		}
		if _, err := s.AddBatch(load); err != nil {
			t.Fatal(err)
		}
	}
	if n := largeAllocs() - before; n != 0 {
		t.Errorf("%d allocations above 32 KiB while inserting %d records: something grows with the store", n, preload)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		if _, err := s.AddBatch(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg > 4 {
		t.Errorf("AddBatch(%d) into a %d-record store: %.1f allocations per batch, want <= 4", batch, preload, avg)
	}
}

// TestWALRecoveryAllocations: replay reads records in place, so recovery
// allocates the ID and little else.
func TestWALRecoveryAllocations(t *testing.T) {
	const n = 20_000
	dir := t.TempDir()
	buildWALStore(t, dir, WALConfig{Policy: SyncNone}, func(s *Store) {
		for base := 0; base < n; base += 256 {
			if _, err := s.AddBatch(batchOf(base, 256)); err != nil {
				t.Fatal(err)
			}
		}
	})
	perRecord := testing.AllocsPerRun(3, func() {
		if _, st, err := OpenStoreFromWAL(dir); err != nil || st.Records < n {
			t.Fatalf("recovered %d records: %v", st.Records, err)
		}
	}) / n
	t.Logf("OpenStoreFromWAL: %.2f allocations per record", perRecord)
	if perRecord > 2 {
		t.Errorf("OpenStoreFromWAL allocates %.2f objects per record, want <= 2", perRecord)
	}
}

// TestHandlesAreStable: a handle, once issued, resolves to the same value
// however much the table grows, and a value seen again gets its handle back.
func TestHandlesAreStable(t *testing.T) {
	var table valueTable[clientCtx]
	ctx := func(i int) clientCtx {
		return clientCtx{ip: fmt.Sprintf("10.0.%d.%d", i>>8, i&255), region: "US", origin: "o.example.org", browser: core.BrowserFamily(i % 3)}
	}
	const n = 5 * chunkLen
	handles := make([]uint32, n)
	for i := range handles {
		handles[i] = intern(&table, ctx(i))
		for _, j := range []int{0, i / 2, i} {
			if got := *table.vals.at(int(handles[j])); got != ctx(j) {
				t.Fatalf("after %d values handle %d resolves to %+v, want %+v", i+1, handles[j], got, ctx(j))
			}
		}
	}
	for i := range handles {
		k := ctx(i)
		if got := intern(&table, clientKey[[]byte]{ip: []byte(k.ip), region: []byte(k.region), origin: []byte(k.origin), browser: k.browser}); got != handles[i] {
			t.Fatalf("value %d re-interned from bytes as handle %d, was %d", i, got, handles[i])
		}
	}
	if table.vals.n != n {
		t.Fatalf("table holds %d values, want %d", table.vals.n, n)
	}
}

// TestTaskIndexLookupReturnsWhatWasRegistered covers the compact per-ID form:
// every field round-trips, Created by Equal over time.Time's whole range.
func TestTaskIndexLookupReturnsWhatWasRegistered(t *testing.T) {
	ti := NewTaskIndex()
	creations := []time.Time{
		{},
		time.Date(2014, 5, 1, 12, 30, 0, 987654321, time.FixedZone("", -7*3600)),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	}
	for i, created := range creations {
		want := core.Task{
			MeasurementID:  fmt.Sprintf("task-%d", i),
			Type:           core.TaskTypes()[i%3],
			TargetURL:      fmt.Sprintf("http://site%d.com/page", i%2),
			CachedImageURL: "http://site.com/logo.png",
			PatternKey:     fmt.Sprintf("domain:site%d.com", i%2),
			TimeoutMillis:  1000 * i,
			Created:        created,
			Control:        i%2 == 1,
		}
		ti.Register(want)
		got, ok := ti.Lookup(string([]byte(want.MeasurementID))) // a different string, as a decoder would make
		if !ok || !got.Created.Equal(want.Created) {
			t.Fatalf("Lookup(%s) = %+v, %v; want Created %v", want.MeasurementID, got, ok, want.Created)
		}
		got.Created = want.Created
		if got != want {
			t.Fatalf("Lookup(%s) = %+v, want %+v", want.MeasurementID, got, want)
		}
	}
	if got, _ := ti.Lookup("task-0"); !got.Created.IsZero() {
		t.Fatalf("zero Created came back as %v", got.Created)
	}
}
