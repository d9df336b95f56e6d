package results

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
)

// aggBase is the fixed timestamp the equivalence tests anchor their window
// grids on; a sentinel measurement is received exactly at aggBase, on the
// grid's first boundary.
var aggBase = time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)

// genAggMeasurements extends genMeasurements with control flags so the
// aggregator's control exclusion is exercised, and prepends a sentinel
// measurement at exactly aggBase.
func genAggMeasurements(ids []uint16, states []uint8, regions []uint8) []Measurement {
	ms := genMeasurements(ids, states, regions)
	for i := range ms {
		// A slice of the ID space is control traffic; derived from the same
		// bytes so duplicate IDs keep a consistent control flag (as in the
		// real system, where the flag comes from the registered task).
		ms[i].Control = ids[i]%512%11 == 0
	}
	sentinel := Measurement{
		MeasurementID: "sentinel",
		PatternKey:    "domain:site0.com",
		State:         core.StateSuccess,
		Region:        "US",
		Browser:       core.BrowserChrome,
		Received:      aggBase,
	}
	return append([]Measurement{sentinel}, ms...)
}

// applyInterleaved writes ms into the store through a mix of single Adds and
// AddBatch calls, with batch boundaries derived from the input bytes, so the
// aggregator sees an arbitrary interleaving of the two commit paths. Members
// the store refuses as conflicting terminal states are expected: they must
// reach no observer.
func applyInterleaved(t *testing.T, store *Store, ms []Measurement, splits []uint8) {
	t.Helper()
	i := 0
	for k := 0; i < len(ms); k++ {
		n := 1
		if len(splits) > 0 {
			n = int(splits[k%len(splits)])%5 + 1
		}
		if n == 1 {
			if err := store.Add(ms[i]); err != nil && !errors.Is(err, ErrConflictingData) {
				t.Fatal(err)
			}
			i++
			continue
		}
		end := i + n
		if end > len(ms) {
			end = len(ms)
		}
		if _, err := store.AddBatch(ms[i:end]); err != nil && !errors.Is(err, ErrConflictingData) {
			t.Fatal(err)
		}
		i = end
	}
}

// TestQuickAggregatorMatchesBatchAggregate is the model-equivalence property
// test: for any measurement sequence (duplicate IDs, init→terminal upgrades,
// refused conflicting terminal states, control traffic) committed through any interleaving of Add and AddBatch,
// the incrementally maintained groups and window buckets must equal what the
// batch functions compute from a store snapshot, bit for bit.
func TestQuickAggregatorMatchesBatchAggregate(t *testing.T) {
	const window = 6 * time.Hour
	f := func(ids []uint16, states []uint8, regions []uint8, splits []uint8) bool {
		ms := genAggMeasurements(ids, states, regions)
		store := NewStore()
		agg := NewAggregator(AggregatorConfig{Window: window, Epoch: aggBase})
		store.AddObserver(agg)
		applyInterleaved(t, store, ms, splits)

		all := store.All()
		if !reflect.DeepEqual(agg.Groups(), Aggregate(all)) {
			t.Logf("groups diverged:\nincremental=%+v\nbatch=%+v", agg.Groups(), Aggregate(all))
			return false
		}
		return reflect.DeepEqual(agg.Windowed(window), AggregateWindowedAt(all, window, aggBase))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregatorBackfillMatchesLive checks the cold-start path: backfilling
// an already-populated store produces exactly the state a live observer
// would have accumulated.
func TestAggregatorBackfillMatchesLive(t *testing.T) {
	ids := make([]uint16, 600)
	states := make([]uint8, 600)
	regions := make([]uint8, 600)
	for i := range ids {
		ids[i] = uint16(i * 37)
		states[i] = uint8(i * 13)
		regions[i] = uint8(i * 7)
	}
	ms := genAggMeasurements(ids, states, regions)
	const window = 12 * time.Hour

	live := NewStore()
	liveAgg := NewAggregator(AggregatorConfig{Window: window, Epoch: aggBase})
	live.AddObserver(liveAgg)
	cold := NewStore()
	for _, m := range ms {
		if err := live.Add(m); err != nil {
			t.Fatal(err)
		}
		if err := cold.Add(m); err != nil {
			t.Fatal(err)
		}
	}

	coldAgg := NewAggregator(AggregatorConfig{Window: window, Epoch: aggBase})
	n := coldAgg.Backfill(cold)
	if n != cold.Len() {
		t.Fatalf("Backfill folded %d measurements, want %d", n, cold.Len())
	}
	if !reflect.DeepEqual(coldAgg.Groups(), liveAgg.Groups()) {
		t.Fatal("backfilled groups differ from live-observed groups")
	}
	if !reflect.DeepEqual(coldAgg.Windowed(window), liveAgg.Windowed(window)) {
		t.Fatal("backfilled windows differ from live-observed windows")
	}
	if coldAgg.DirtyPatternCount() == 0 {
		t.Fatal("backfill must mark the folded patterns dirty")
	}
}

// TestAggregatorDirtyContract pins the dirty-group contract DetectIncremental
// relies on: commits mark their pattern dirty, a drain hands the set over and
// resets it, and only new commits re-mark.
func TestAggregatorDirtyContract(t *testing.T) {
	store := NewStore()
	agg := NewAggregator(AggregatorConfig{})
	store.AddObserver(agg)

	m := Measurement{MeasurementID: "d1", PatternKey: "domain:a.com", State: core.StateInit,
		Region: "TR", Browser: core.BrowserChrome}
	if err := store.Add(m); err != nil {
		t.Fatal(err)
	}
	dirty := agg.DrainDirtyPatterns()
	if len(dirty) != 1 || dirty[0] != "domain:a.com" {
		t.Fatalf("dirty after insert = %v, want [domain:a.com]", dirty)
	}
	if got := agg.DrainDirtyPatterns(); len(got) != 0 {
		t.Fatalf("second drain must be empty, got %v", got)
	}

	// An in-place upgrade dirties the pattern again.
	m.State = core.StateSuccess
	if err := store.Add(m); err != nil {
		t.Fatal(err)
	}
	if got := agg.DrainDirtyPatterns(); len(got) != 1 {
		t.Fatalf("dirty after upgrade = %v, want one pattern", got)
	}
	groups := agg.Groups()
	if len(groups) != 1 || groups[0].Successes != 1 || groups[0].InitOnly != 0 {
		t.Fatalf("upgrade not retracted+readded: %+v", groups)
	}

	// An ignored downgrade (terminal → init) produces no commit and no dirt.
	m.State = core.StateInit
	if err := store.Add(m); err != nil {
		t.Fatal(err)
	}
	if got := agg.DrainDirtyPatterns(); len(got) != 0 {
		t.Fatalf("ignored downgrade must not dirty, got %v", got)
	}
}

// TestAggregatorConcurrentFanIn hammers one observer-attached store from many
// writers while readers concurrently take Groups/Windowed/dirty snapshots;
// run under -race this is the aggregation tier's data-race test, and the
// final quiesced state must still match the batch recomputation.
func TestAggregatorConcurrentFanIn(t *testing.T) {
	const (
		writers = 8
		perW    = 400
		window  = 3 * time.Hour
	)
	store := NewStore()
	agg := NewAggregator(AggregatorConfig{Window: window, Epoch: aggBase})
	store.AddObserver(agg)

	var readersWg, writersWg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		readersWg.Add(1)
		go func() {
			defer readersWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = agg.Groups()
				_ = agg.Windowed(window)
				_ = agg.GroupCount()
				_ = agg.DrainDirtyPatterns()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			batch := make([]Measurement, 0, 8)
			for i := 0; i < perW; i++ {
				// Overlapping ID spaces across writers force concurrent
				// upgrade commits for the same measurement.
				id := (w*perW + i) % (writers * perW / 2)
				state := core.StateInit
				if i%3 != 0 {
					state = core.StateSuccess
				}
				if i%7 == 0 {
					state = core.StateFailure
				}
				m := Measurement{
					MeasurementID: fmt.Sprintf("m%d", id),
					PatternKey:    fmt.Sprintf("domain:site%d.com", id%5),
					State:         state,
					Region:        geo.CountryCode([]string{"US", "CN", "PK", "IR"}[id%4]),
					Browser:       core.BrowserChrome,
					Received:      aggBase.Add(time.Duration(id%97) * time.Minute),
				}
				if i%4 == 0 {
					batch = append(batch, m)
					if len(batch) == cap(batch) {
						if _, err := store.AddBatch(batch); err != nil {
							t.Error(err)
						}
						batch = batch[:0]
					}
					continue
				}
				if err := store.Add(m); err != nil {
					t.Error(err)
				}
			}
			if len(batch) > 0 {
				if _, err := store.AddBatch(batch); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	writersWg.Wait()
	close(stop)
	readersWg.Wait()

	all := store.All()
	if !reflect.DeepEqual(agg.Groups(), Aggregate(all)) {
		t.Fatal("quiesced incremental groups diverge from batch aggregation")
	}
	if !reflect.DeepEqual(agg.Windowed(window), AggregateWindowedAt(all, window, aggBase)) {
		t.Fatal("quiesced incremental windows diverge from batch windowed aggregation")
	}
}

// TestAggregatorWindowedDisabledOrMismatched pins Windowed's contract.
func TestAggregatorWindowedDisabledOrMismatched(t *testing.T) {
	agg := NewAggregator(AggregatorConfig{})
	agg.Commit(nil, Measurement{MeasurementID: "x", PatternKey: "k", State: core.StateSuccess,
		Received: aggBase})
	if got := agg.Windowed(time.Hour); got != nil {
		t.Fatal("Windowed must return nil when windowed tracking is disabled")
	}
	agg2 := NewAggregator(AggregatorConfig{Window: time.Hour})
	agg2.Commit(nil, Measurement{MeasurementID: "x", PatternKey: "k", State: core.StateSuccess,
		Received: aggBase})
	if got := agg2.Windowed(2 * time.Hour); got != nil {
		t.Fatal("Windowed must return nil for a mismatched window")
	}
	if got := agg2.Windowed(time.Hour); len(got) != 1 {
		t.Fatalf("Windowed(config window) = %d buckets, want 1", len(got))
	}
}

// TestStoreRange pins Range's streaming contract: early stop, and full
// coverage without a defensive copy.
func TestStoreRange(t *testing.T) {
	store := NewStore()
	for i := 0; i < 100; i++ {
		if err := store.Add(Measurement{MeasurementID: fmt.Sprintf("r%d", i),
			PatternKey: "k", State: core.StateSuccess}); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	store.Range(func(Measurement) bool { total++; return true })
	if total != 100 {
		t.Fatalf("Range visited %d measurements, want 100", total)
	}
	visited := 0
	store.Range(func(Measurement) bool { visited++; return visited < 7 })
	if visited != 7 {
		t.Fatalf("early-stopped Range visited %d, want 7", visited)
	}
}
