package results

// The first terminal state wins (§8): a measurement that reported success
// cannot later report failure, nor the reverse. The store holds the rule at
// commit, on Add and AddBatch alike, and recovery rebuilds it with the store.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"encore/internal/core"
	"encore/internal/wire"
)

// countingObserver counts the commits it is notified of.
type countingObserver struct {
	mu sync.Mutex
	n  int
}

func (o *countingObserver) Commit(*Measurement, Measurement) {
	o.mu.Lock()
	o.n++
	o.mu.Unlock()
}

func TestStoreConflictingTerminalStates(t *testing.T) {
	s := NewStore()
	obs := &countingObserver{}
	s.AddObserver(obs)
	for _, state := range []core.State{core.StateInit, core.StateSuccess, core.StateSuccess} {
		// The init → success upgrade, then the same state again (retries
		// happen): each commits.
		if err := s.Add(walTestMeasurement(1, state)); err != nil {
			t.Fatalf("Add(%s): %v", state, err)
		}
	}
	poisoned := walTestMeasurement(1, core.StateFailure)
	poisoned.ClientIP = "11.0.0.9"
	if err := s.Add(poisoned); !errors.Is(err, ErrConflictingData) {
		t.Fatalf("conflicting terminal state: err = %v, want ErrConflictingData", err)
	}
	// A later init is ignored, as ever.
	if err := s.Add(walTestMeasurement(1, core.StateInit)); err != nil {
		t.Fatal(err)
	}
	if m, _ := s.Get("wal-1"); m != walTestMeasurement(1, core.StateSuccess) {
		t.Fatalf("stored %+v, want the first terminal state's record", m)
	}
	if obs.n != 3 {
		t.Fatalf("observer saw %d commits, want 3: a refusal and an ignored init commit nothing", obs.n)
	}

	// A batch reports each refused member by its index; the rest commit, and
	// two members of one ID commit in batch order.
	batch := []Measurement{
		walTestMeasurement(1, core.StateFailure), // refused: success is recorded
		walTestMeasurement(2, core.StateFailure),
		walTestMeasurement(1, core.StateSuccess),
		walTestMeasurement(2, core.StateSuccess),                       // refused: index 1 recorded failure
		{MeasurementID: "", PatternKey: "k", State: core.StateSuccess}, // invalid
	}
	stored, err := s.AddBatch(batch)
	var conflict *ConflictError
	if stored != 2 || !errors.As(err, &conflict) || !slices.Equal(conflict.Indices, []int{0, 3}) {
		t.Fatalf("AddBatch = %d, %v; want 2 stored and members [0 3] refused", stored, err)
	}
	if !errors.Is(err, ErrConflictingData) || errors.Unwrap(conflict) != ErrConflictingData {
		t.Fatalf("AddBatch error %v does not match ErrConflictingData", err)
	}
	if err == error(conflict) {
		t.Fatal("the invalid member's validation error was dropped")
	}
	if m, _ := s.Get("wal-2"); m.State != core.StateFailure {
		t.Fatalf("wal-2 is %s, want the first terminal state in batch order", m.State)
	}
	if obs.n != 5 {
		t.Fatalf("observer saw %d commits, want 5", obs.n)
	}
}

// TestFirstTerminalWinsConcurrent races success against failure for shared
// IDs through both entry points: every ID must end terminal, exactly the
// submissions agreeing with its stored state commit and the others are
// refused, and an attached Aggregator must equal the batch aggregate of the
// final store — a refusal reaches no observer.
func TestFirstTerminalWinsConcurrent(t *testing.T) {
	const workers, ids, batch = 8, 1000, 25
	s := NewStore()
	agg := NewAggregator(AggregatorConfig{})
	s.AddObserver(agg)
	states := []core.State{core.StateSuccess, core.StateFailure}
	var committed, refused [workers][ids]bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			state := states[w%2]
			// Each worker walks the IDs from its own offset, so the race for
			// each ID's first terminal state has varied winners.
			for k := 0; k < ids; {
				if (w+k/batch)%2 == 0 { // a single Add
					i := (k + w*ids/workers) % ids
					err := s.Add(walTestMeasurement(i, state))
					if err != nil && !errors.Is(err, ErrConflictingData) {
						t.Error(err)
						return
					}
					committed[w][i], refused[w][i] = err == nil, err != nil
					k++
					continue
				}
				ms := make([]Measurement, batch)
				for j := range ms {
					ms[j] = walTestMeasurement((k+j+w*ids/workers)%ids, state)
				}
				stored, err := s.AddBatch(ms)
				var conflict *ConflictError
				if err != nil && !errors.As(err, &conflict) {
					t.Error(err)
					return
				}
				if conflict != nil && stored+len(conflict.Indices) != batch || conflict == nil && stored != batch {
					t.Errorf("AddBatch stored %d and refused %v of %d", stored, conflict, batch)
					return
				}
				for j := range ms {
					i := (k + j + w*ids/workers) % ids
					no := conflict != nil && slices.Contains(conflict.Indices, j)
					committed[w][i], refused[w][i] = !no, no
				}
				k += batch
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	winners, refusals, failed := 0, 0, 0
	for i := 0; i < ids; i++ {
		m, ok := s.Get(fmt.Sprintf("wal-%d", i))
		if !ok || !m.Completed() {
			t.Fatalf("wal-%d ended %+v, want a terminal state", i, m)
		}
		if m.State == core.StateFailure {
			failed++
		}
		for w := 0; w < workers; w++ {
			agrees := states[w%2] == m.State
			if committed[w][i] != agrees || refused[w][i] == agrees {
				t.Fatalf("wal-%d stored %s: worker %d (%s) committed=%v refused=%v",
					i, m.State, w, states[w%2], committed[w][i], refused[w][i])
			}
			if committed[w][i] {
				winners++
			} else {
				refusals++
			}
		}
	}
	t.Logf("%d of %d IDs kept failure", failed, ids)
	if winners+refusals != workers*ids {
		t.Fatalf("%d committed + %d refused, want %d submissions", winners, refusals, workers*ids)
	}
	if got, want := agg.Groups(), Aggregate(s.All()); !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregator diverged from the final store:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayKeepsAnOlderLogsLastTerminalState pins recovery's side of the
// rule: replay does not apply it. A log holding init, success and then
// failure for one ID — what a store that let a later terminal state replace
// an earlier one could write — recovers to the failure, exactly as written,
// because that is the state the log's writer served.
func TestReplayKeepsAnOlderLogsLastTerminalState(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	written := []Measurement{
		walTestMeasurement(4, core.StateInit),
		walTestMeasurement(4, core.StateSuccess),
		walTestMeasurement(4, core.StateFailure),
	}
	for i, m := range written {
		w.CommitStream(uint64(i+1), 1, nil, m)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, stats, err := OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 || s.Len() != 1 {
		t.Fatalf("replayed %d records into %d measurements, want 3 into 1", stats.Records, s.Len())
	}
	last := written[2]
	if got, _ := s.Get(last.MeasurementID); got != last {
		t.Fatalf("recovered %+v, want the last record written %+v", got, last)
	}
	want, err := wire.AppendRecordFrame(nil, 1, 1, (*wire.Record)(&last))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeWire(t, s), want) {
		t.Fatal("the recovered store exports different bytes from the failure record written")
	}
	// From here on the recovered store holds the rule against that state.
	if err := s.Add(written[1]); !errors.Is(err, ErrConflictingData) {
		t.Fatalf("success after recovery: err = %v, want ErrConflictingData", err)
	}
}

// TestAddBatchAllocatesNothingWithoutRefusals: a batch the store commits whole
// allocates nothing of its own — not its shard grouping and not a refusal
// report — once the records' table values and chunks exist.
func TestAddBatchAllocatesNothingWithoutRefusals(t *testing.T) {
	s := NewStore()
	batch := make([]Measurement, batchHashes)
	for i := range batch {
		batch[i] = walTestMeasurement(i, core.StateSuccess)
	}
	if _, err := s.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := s.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("re-sending a %d-record batch allocated %.1f times", len(batch), avg)
	}
}
