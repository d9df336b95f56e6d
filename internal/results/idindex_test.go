package results

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"

	"encore/internal/core"
)

// degraded narrows an idHash to the bits mask keeps and sets the others, so
// with a narrow mask home words and tags collide and every home sits at the
// end of a stretch of the table, the last at its very end: probe runs wrap.
func degraded(h, mask uint64) uint64 { return h&mask | ^mask }

// checkIDIndex drives an idIndex, over IDs held in a table the way a store
// shard holds them, against a map. Each op byte picks an ID from a pool of 64
// and whether a miss inserts it; mask degrades the hash (see degraded).
func checkIDIndex(t *testing.T, mask uint64, ops []byte) {
	t.Helper()
	var (
		x     idIndex
		ids   []string
		model = make(map[string]uint32)
	)
	idAt := func(i uint32) string { return ids[i] }
	hashAt := func(i uint32) uint64 { return degraded(idHash(ids[i]), mask) }
	get := func(id string) {
		t.Helper()
		want, wantOK := model[id]
		if got, ok := lookupID(&x, degraded(idHash(id), mask), id, idAt); ok != wantOK || got != want {
			t.Fatalf("mask %#x: lookupID(%s) = %d, %v; model %d, %v", mask, id, got, ok, want, wantOK)
		}
		b := []byte(id)
		if got, ok := lookupID(&x, degraded(maphash.Bytes(idSeed, b), mask), b, idAt); ok != wantOK || got != want {
			t.Fatalf("mask %#x: lookupID([]byte %s) = %d, %v; model %d, %v", mask, id, got, ok, want, wantOK)
		}
	}
	for _, op := range ops {
		id := fmt.Sprintf("id-%d", op&63)
		get(id)
		if _, ok := model[id]; !ok && op&64 == 0 {
			ids = append(ids, id)
			x.put(hashAt(uint32(len(ids)-1)), hashAt)
			model[id] = uint32(len(ids) - 1)
		}
	}
	for i := 0; i < 64; i++ {
		get(fmt.Sprintf("id-%d", i))
	}
}

// TestIDIndexMatchesMap degrades the hash to 3 bits and then to a constant, so
// tags match on nearly every word read and runs wrap the table's end, and
// also runs the full hash.
func TestIDIndexMatchesMap(t *testing.T) {
	for _, mask := range []uint64{7 << 61, 0, ^uint64(0)} {
		for seed := int64(1); seed <= 20; seed++ {
			ops := make([]byte, 1+rand.New(rand.NewSource(seed)).Intn(300))
			rand.New(rand.NewSource(seed)).Read(ops)
			checkIDIndex(t, mask, ops)
		}
	}
}

// FuzzIDIndex runs operation sequences decoded from the input, under a
// fuzz-chosen hash mask, against the map model.
func FuzzIDIndex(f *testing.F) {
	f.Add(uint64(7<<61), []byte{0, 1, 2, 3, 64 | 4, 1, 2, 64 | 5, 5})
	f.Add(uint64(0), []byte{1, 2, 3, 64 | 4, 3, 2, 1})
	f.Add(^uint64(0), []byte{9, 9, 73, 10})
	f.Fuzz(checkIDIndex)
}

// TestIDIndexGrowth looks up every handle, and an absent ID, after each
// doubling of the table, with the full hash and a degraded one.
func TestIDIndexGrowth(t *testing.T) {
	for _, c := range []struct {
		mask uint64
		n    int
	}{{^uint64(0), 1 << 14}, {7 << 61, 1 << 10}} {
		var (
			x   idIndex
			ids []string
		)
		idAt := func(i uint32) string { return ids[i] }
		hashAt := func(i uint32) uint64 { return degraded(idHash(ids[i]), c.mask) }
		doublings := 0
		for len(ids) < c.n {
			ids = append(ids, fmt.Sprintf("m-%08d", len(ids)))
			bits := x.bits
			x.put(hashAt(uint32(len(ids)-1)), hashAt)
			if x.bits == bits {
				continue
			}
			doublings++
			for i, id := range ids {
				if got, ok := lookupID(&x, hashAt(uint32(i)), id, idAt); !ok || got != uint32(i) {
					t.Fatalf("mask %#x, %d IDs in %d words: lookupID(%s) = %d, %v; want %d", c.mask, len(ids), 1<<x.bits, id, got, ok, i)
				}
			}
			if got, ok := lookupID(&x, degraded(idHash("absent"), c.mask), "absent", idAt); ok {
				t.Fatalf("mask %#x, %d IDs: an absent ID found at %d", c.mask, len(ids), got)
			}
		}
		if doublings < 8 || x.n != uint32(c.n) || 4*x.n > 3<<x.bits {
			t.Fatalf("mask %#x: %d doublings to %d words for %d handles", c.mask, doublings, 1<<x.bits, x.n)
		}
	}
}

// TestIDIndexProbeLength holds the index to linear probing's expected cost
// at its load limit α = 3/4: per hit ½(1 + 1/(1−α)) = 2.5 words read, per
// miss ½(1 + 1/(1−α)²) = 8.5 (Knuth), within 25 %, over the scheduler's IDs,
// the benchmark generator's and random ones.
func TestIDIndexProbeLength(t *testing.T) {
	const bits, n = 16, 3 << 14 // 2^16 words, 3/4 full
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func(i int) string{
		"scheduler": func(i int) string { return fmt.Sprintf("m-%08d-%04x", i, rng.Intn(1<<16)) },
		"generator": func(i int) string { return fmt.Sprintf("b%x-%x", i, rng.Intn(1<<20)) },
		"random":    func(int) string { return fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64()) },
	}
	// wordsRead counts the words lookupID reads for hash h: up to the word
	// holding handle+1, or the first empty one.
	wordsRead := func(x *idIndex, h uint64, handle uint32) int {
		low := uint32(1)<<x.bits - 1
		j := uint32(h >> (64 - x.bits))
		for read := 1; ; read++ {
			if w := *x.word(j); w == 0 || w&low == handle+1 {
				return read
			}
			j = (j + 1) & low
		}
	}
	for name, shape := range shapes {
		var (
			x   idIndex
			ids []string
		)
		hashAt := func(i uint32) uint64 { return idHash(ids[i]) }
		for len(ids) < n {
			ids = append(ids, shape(len(ids)))
			x.put(hashAt(uint32(len(ids)-1)), hashAt)
		}
		if x.bits != bits {
			t.Fatalf("%s: %d IDs in 2^%d words, want 2^%d", name, n, x.bits, bits)
		}
		hits, misses := 0, 0
		for i := range ids {
			hits += wordsRead(&x, hashAt(uint32(i)), uint32(i))
		}
		for i := n; i < 2*n; i++ {
			misses += wordsRead(&x, idHash(shape(i)), n)
		}
		alpha := 0.75
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"hit", float64(hits) / n, (1 + 1/(1-alpha)) / 2},
			{"miss", float64(misses) / n, (1 + 1/((1-alpha)*(1-alpha))) / 2},
		} {
			t.Logf("%s IDs: %.2f words read per %s, linear probing %.2f", name, c.got, c.what, c.want)
			if c.got > 1.25*c.want || c.got < 0.75*c.want {
				t.Errorf("%s IDs: %.2f words read per %s, want within 25%% of %.2f", name, c.got, c.what, c.want)
			}
		}
	}
}

// collidingIDs returns pairs of distinct IDs whose full FNV-1a hashes are
// equal, and so share a shard in every store and index: a birthday search
// over 32-bit hashes, which finds three pairs of these IDs among the first
// 2^18 candidates.
func collidingIDs(t *testing.T, pairs int) [][2]string {
	t.Helper()
	seen := make(map[uint32]string)
	var out [][2]string
	for i := 0; len(out) < pairs; i++ {
		if i == 1<<20 {
			t.Fatalf("found %d colliding pairs in 2^20 candidates, want %d", len(out), pairs)
		}
		id := fmt.Sprintf("m-%08d", i)
		if other, ok := seen[ShardHash(id)]; ok {
			out = append(out, [2]string{other, id})
		} else {
			seen[ShardHash(id)] = id
		}
	}
	return out
}

// TestCollidingIDs holds the Store, its WAL recovery and the TaskIndex to
// their contracts when IDs share a full FNV-1a hash, and so a shard: the last
// pair's second ID is never added, so a lookup of it meets its partner in the
// shard.
func TestCollidingIDs(t *testing.T) {
	pairs := collidingIDs(t, 3)
	absent := pairs[len(pairs)-1][1]
	var present []string
	for _, p := range pairs {
		present = append(present, p[0])
		if p[1] != absent {
			present = append(present, p[1])
		}
	}
	record := func(k int, id string, state core.State) Measurement {
		m := walTestMeasurement(k, state)
		m.MeasurementID = id
		return m
	}

	t.Run("Store", func(t *testing.T) {
		dir := t.TempDir()
		rec := &eventRecorder{}
		model := newNaiveStore()
		add := func(s *Store, m Measurement) {
			if got, want := s.Add(m), model.add(m); (got == nil) != (want == nil) {
				t.Fatalf("Add(%s) = %v, model %v", m.MeasurementID, got, want)
			}
		}
		check := func(s *Store, what string) {
			t.Helper()
			if s.Len() != len(model.order) || !slices.Equal(s.All(), model.all()) {
				t.Fatalf("%s: %d records, model %d, or All() diverged", what, s.Len(), len(model.order))
			}
			for _, id := range append(present, absent) {
				got, ok := s.Get(id)
				want, wantOK := model.recs[id]
				if ok != wantOK || got != want {
					t.Fatalf("%s: Get(%s) = %+v, %v; model %+v, %v", what, id, got, ok, want, wantOK)
				}
			}
			if !bytes.Equal(storeWire(t, s), model.wire(t)) {
				t.Fatalf("%s: WriteWire bytes diverged from the model", what)
			}
		}
		live := buildWALStore(t, dir, WALConfig{Policy: SyncNone}, func(s *Store) {
			s.AddObserver(rec)
			for k, id := range present { // inserts, each pair's second after its first
				add(s, record(k, id, core.StateInit))
			}
			for k, id := range present { // upgrades, in place
				add(s, record(100+k, id, []core.State{core.StateSuccess, core.StateFailure}[k%2]))
			}
			for k, id := range present { // ignored downgrades
				add(s, record(200+k, id, core.StateInit))
			}
			batch := []Measurement{record(300, pairs[0][1], core.StateFailure), record(301, pairs[0][0], core.StateSuccess)}
			got, gotErr := s.AddBatch(batch)
			want, wantErr := model.addBatch(batch)
			if got != want || gotErr != nil || wantErr != nil {
				t.Fatalf("AddBatch = %d, %v; model %d, %v", got, gotErr, want, wantErr)
			}
		})
		check(live, "live store")
		if len(rec.events) != len(model.events) {
			t.Fatalf("observer saw %d commits, model %d", len(rec.events), len(model.events))
		}
		for i := range rec.events {
			if !rec.events[i].equal(model.events[i]) {
				t.Fatalf("commit %d:\nstore: %v\nmodel: %v", i, rec.events[i], model.events[i])
			}
		}

		recovered, _, err := OpenStoreFromWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(recovered, "recovered store")
		for k, id := range present { // the index replay built finds every ID
			add(recovered, record(400+k, id, core.StateSuccess))
		}
		add(recovered, record(500, absent, core.StateInit))
		check(recovered, "recovered store after further commits")
	})

	t.Run("TaskIndex", func(t *testing.T) {
		ti := NewTaskIndex()
		task := func(id string, k int) core.Task {
			return core.Task{MeasurementID: id, PatternKey: fmt.Sprintf("domain:site%d.com", k), TimeoutMillis: k}
		}
		for k, id := range present {
			ti.Register(task(id, k))
		}
		for k, id := range present {
			if got, ok := ti.Lookup(id); !ok || got != task(id, k) {
				t.Fatalf("Lookup(%s) = %+v, %v; want %+v", id, got, ok, task(id, k))
			}
		}
		if got, ok := ti.Lookup(absent); ok {
			t.Fatalf("Lookup(%s) of an unregistered ID = %+v, want a miss", absent, got)
		}
		for k, id := range present { // re-registration overwrites in place
			ti.Register(task(id, 100+k))
		}
		if ti.Len() != len(present) {
			t.Fatalf("Len = %d after re-registering, want %d", ti.Len(), len(present))
		}
		for k, id := range present {
			if got, ok := ti.Lookup(id); !ok || got != task(id, 100+k) {
				t.Fatalf("Lookup(%s) after re-registering = %+v, %v; want %+v", id, got, ok, task(id, 100+k))
			}
		}
	})
}
