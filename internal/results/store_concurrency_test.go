package results

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"encore/internal/core"
	"encore/internal/geo"
)

// modelStore is a sequential reference implementation: one slice in
// insertion order, one index map, terminal states never downgraded and the
// first terminal state never replaced by the other. The sharded Store must be
// observationally equivalent to it under any sequential operation sequence.
type modelStore struct {
	measurements []Measurement
	byID         map[string]int
}

func newModelStore() *modelStore { return &modelStore{byID: make(map[string]int)} }

func (s *modelStore) Add(m Measurement) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if idx, ok := s.byID[m.MeasurementID]; ok {
		if old := s.measurements[idx]; old.Completed() && old.State != m.State {
			if m.Completed() {
				return ErrConflictingData
			}
			return nil
		}
		s.measurements[idx] = m
		return nil
	}
	s.byID[m.MeasurementID] = len(s.measurements)
	s.measurements = append(s.measurements, m)
	return nil
}

func (s *modelStore) Get(id string) (Measurement, bool) {
	idx, ok := s.byID[id]
	if !ok {
		return Measurement{}, false
	}
	return s.measurements[idx], true
}

// randomMeasurement draws a measurement from a small ID pool so sequences mix
// inserts with same-ID upgrades, downgrades and conflicting terminal states.
func randomMeasurement(rng *rand.Rand) Measurement {
	states := []core.State{core.StateInit, core.StateSuccess, core.StateFailure}
	regions := []geo.CountryCode{"US", "CN", "PK", "IR", "TR", ""}
	return Measurement{
		MeasurementID: fmt.Sprintf("m-%03d", rng.Intn(200)),
		PatternKey:    fmt.Sprintf("domain:site%d.com", rng.Intn(5)),
		State:         states[rng.Intn(len(states))],
		Region:        regions[rng.Intn(len(regions))],
		ClientIP:      fmt.Sprintf("11.0.%d.%d", rng.Intn(3), rng.Intn(50)),
		Browser:       core.BrowserChrome,
	}
}

// TestShardedStoreMatchesSequentialModel applies random operation sequences
// to the sharded store and the sequential model and asserts they are
// observationally equivalent: same length, same insertion order, same lookup
// results, same aggregate statistics.
func TestShardedStoreMatchesSequentialModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sharded := NewStore()
		model := newModelStore()
		nOps := 100 + rng.Intn(900)
		for i := 0; i < nOps; i++ {
			m := randomMeasurement(rng)
			gotErr := sharded.Add(m)
			wantErr := model.Add(m)
			if gotErr != wantErr {
				t.Fatalf("seed %d: Add error mismatch: sharded=%v model=%v", seed, gotErr, wantErr)
			}
		}
		if sharded.Len() != len(model.measurements) {
			t.Fatalf("seed %d: Len=%d, model has %d", seed, sharded.Len(), len(model.measurements))
		}
		all := sharded.All()
		if len(all) != len(model.measurements) {
			t.Fatalf("seed %d: All returned %d, model has %d", seed, len(all), len(model.measurements))
		}
		for i := range all {
			if all[i] != model.measurements[i] {
				t.Fatalf("seed %d: insertion order diverged at %d:\nsharded: %+v\nmodel:   %+v",
					seed, i, all[i], model.measurements[i])
			}
		}
		for i := 0; i < 200; i++ {
			id := fmt.Sprintf("m-%03d", i)
			got, gotOK := sharded.Get(id)
			want, wantOK := model.Get(id)
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d: Get(%s) = %+v,%v; model %+v,%v", seed, id, got, gotOK, want, wantOK)
			}
		}
		wantByRegion := make(map[geo.CountryCode]int)
		for _, m := range model.measurements {
			wantByRegion[m.Region]++
		}
		gotByRegion := sharded.Stats().ByCountry
		if len(gotByRegion) != len(wantByRegion) {
			t.Fatalf("seed %d: ByCountry=%v, want %v", seed, gotByRegion, wantByRegion)
		}
		for r, n := range wantByRegion {
			if gotByRegion[r] != n {
				t.Fatalf("seed %d: ByCountry[%s]=%d, want %d", seed, r, gotByRegion[r], n)
			}
		}
	}
}

// TestStoreConcurrentFanIn hammers one store from many writers with
// overlapping measurement IDs while readers run every query concurrently,
// then checks the invariants that must survive any interleaving: no duplicate
// IDs, terminal states never downgraded, every write visible, counters
// consistent. Writers race success against failure on shared IDs, so some
// Adds are refused as conflicting. Run under -race this is the store's core
// race test.
func TestStoreConcurrentFanIn(t *testing.T) {
	const (
		writers       = 8
		opsPerWriter  = 500
		sharedIDSpace = 300 // writers collide on IDs to exercise upgrades
	)
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWriter; i++ {
				m := randomMeasurement(rng)
				if err := s.Add(m); err != nil && !errors.Is(err, ErrConflictingData) {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers exercising every query path.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Len()
				_, _ = s.Get(fmt.Sprintf("m-%03d", r*37%200))
				_ = Aggregate(s.All())
				_ = s.Filter(func(m Measurement) bool { return m.Completed() })
				_ = s.Stats()
				var buf bytes.Buffer
				_ = s.WriteJSONL(&buf)
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	all := s.All()
	if len(all) != s.Len() {
		t.Fatalf("All()=%d records, Len()=%d", len(all), s.Len())
	}
	seen := make(map[string]bool)
	for _, m := range all {
		if seen[m.MeasurementID] {
			t.Fatalf("duplicate measurement ID %s", m.MeasurementID)
		}
		seen[m.MeasurementID] = true
		got, ok := s.Get(m.MeasurementID)
		if !ok {
			t.Fatalf("Get(%s) lost a stored measurement", m.MeasurementID)
		}
		if m.Completed() && !got.Completed() {
			t.Fatalf("terminal state downgraded for %s", m.MeasurementID)
		}
	}
	// The aggregate view must conserve counts over the final state.
	total := 0
	for _, g := range Aggregate(all) {
		if g.Successes+g.Failures+g.InitOnly != g.Total {
			t.Fatalf("group tallies inconsistent: %+v", g)
		}
		total += g.Total
	}
}

// TestAddBatchMatchesRepeatedAdd checks the batched write path has identical
// semantics to repeated Add — the members refused as conflicting are exactly
// those repeated Add refuses — and that an invalid batch member is skipped
// with the valid members stored.
func TestAddBatchMatchesRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var batch []Measurement
	for i := 0; i < 300; i++ {
		batch = append(batch, randomMeasurement(rng))
	}
	single := NewStore()
	var wantRefused []int
	for i, m := range batch {
		if err := single.Add(m); errors.Is(err, ErrConflictingData) {
			wantRefused = append(wantRefused, i)
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if len(wantRefused) == 0 {
		t.Fatal("the batch holds no conflicting terminal state")
	}
	batched := NewStore()
	stored, err := batched.AddBatch(batch)
	var conflict *ConflictError
	if !errors.As(err, &conflict) || !slices.Equal(conflict.Indices, wantRefused) {
		t.Fatalf("AddBatch refused %v (%v), repeated Add refused %v", conflict, err, wantRefused)
	}
	if stored != len(batch)-len(wantRefused) {
		t.Fatalf("AddBatch stored %d of %d", stored, len(batch)-len(wantRefused))
	}
	if batched.Len() != single.Len() {
		t.Fatalf("batched Len=%d, single Len=%d", batched.Len(), single.Len())
	}
	for _, m := range single.All() {
		got, ok := batched.Get(m.MeasurementID)
		if !ok || got != m {
			t.Fatalf("batched store diverges at %s: %+v vs %+v", m.MeasurementID, got, m)
		}
	}

	s := NewStore()
	bad := []Measurement{
		{MeasurementID: "ok-1", PatternKey: "k", State: core.StateSuccess},
		{MeasurementID: "", PatternKey: "k", State: core.StateSuccess}, // invalid
		{MeasurementID: "ok-2", PatternKey: "k", State: core.StateSuccess},
	}
	stored, err = s.AddBatch(bad)
	if err == nil {
		t.Fatal("invalid batch member not reported")
	}
	if stored != 2 {
		t.Fatalf("AddBatch stored %d of the 2 valid members", stored)
	}
	for _, id := range []string{"ok-1", "ok-2"} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("valid batch member %s discarded because of a poisoned sibling", id)
		}
	}
	if _, ok := s.Get(""); ok {
		t.Fatal("invalid member stored")
	}
}

// TestAllAndFilterReturnDefensiveCopies checks callers may mutate returned
// slices freely while the store keeps serving writers.
func TestAllAndFilterReturnDefensiveCopies(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		_ = s.Add(Measurement{
			MeasurementID: fmt.Sprintf("m%d", i), PatternKey: "k",
			State: core.StateSuccess, Region: "US",
		})
	}
	all := s.All()
	all[0].MeasurementID = "clobbered"
	all[0].State = core.StateInit
	if got, _ := s.Get("m0"); got.State != core.StateSuccess {
		t.Fatal("mutating All() result leaked into the store")
	}
	filtered := s.Filter(func(Measurement) bool { return true })
	filtered[1].Region = "XX"
	if got, _ := s.Get("m1"); got.Region != "US" {
		t.Fatal("mutating Filter() result leaked into the store")
	}
}

// TestStoreShardCountIsTunable checks non-default shard counts behave
// identically (including a single-shard store, the degenerate case).
func TestStoreShardCountIsTunable(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 64} {
		s := NewStoreWithShards(shards)
		for i := 0; i < 50; i++ {
			if err := s.Add(Measurement{
				MeasurementID: fmt.Sprintf("m%d", i), PatternKey: "k",
				State: core.StateSuccess, Region: "US",
			}); err != nil {
				t.Fatal(err)
			}
		}
		if s.Len() != 50 {
			t.Fatalf("shards=%d: Len=%d", shards, s.Len())
		}
		all := s.All()
		for i, m := range all {
			if m.MeasurementID != fmt.Sprintf("m%d", i) {
				t.Fatalf("shards=%d: insertion order broken at %d: %s", shards, i, m.MeasurementID)
			}
		}
	}
}
