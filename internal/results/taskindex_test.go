package results

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"encore/internal/core"
)

func TestTaskIndexBasics(t *testing.T) {
	ti := NewTaskIndex()
	if ti.Len() != 0 {
		t.Fatalf("empty index Len=%d", ti.Len())
	}
	ti.Register(core.Task{}) // empty ID: no-op
	if ti.Len() != 0 {
		t.Fatal("registering an empty measurement ID must be a no-op")
	}
	ti.Register(core.Task{MeasurementID: "a", PatternKey: "domain:x.com"})
	ti.Register(core.Task{MeasurementID: "a", PatternKey: "domain:y.com"}) // overwrite, not a new entry
	ti.Register(core.Task{MeasurementID: "b", PatternKey: "domain:z.com"})
	if ti.Len() != 2 {
		t.Fatalf("Len=%d, want 2", ti.Len())
	}
	got, ok := ti.Lookup("a")
	if !ok || got.PatternKey != "domain:y.com" {
		t.Fatalf("Lookup(a) = %+v, %v", got, ok)
	}
	if _, ok := ti.Lookup("missing"); ok {
		t.Fatal("Lookup must miss for unregistered IDs")
	}
}

// TestTaskIndexConcurrentFanIn exercises the sharded index from concurrent
// registrars and lookers; run under -race this is the attribution hot path's
// data-race test.
func TestTaskIndexConcurrentFanIn(t *testing.T) {
	const (
		workers = 8
		perW    = 500
	)
	ti := NewTaskIndex()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Overlapping ID space across workers: re-registrations must
				// not inflate Len.
				id := fmt.Sprintf("t%d", (w*perW+i)%(workers*perW/2))
				ti.Register(core.Task{MeasurementID: id, PatternKey: "domain:x.com"})
				if _, ok := ti.Lookup(id); !ok {
					t.Errorf("registered task %s not found", id)
					return
				}
				_ = ti.Len()
			}
		}(w)
	}
	wg.Wait()
	if ti.Len() != workers*perW/2 {
		t.Fatalf("Len=%d after concurrent registration, want %d", ti.Len(), workers*perW/2)
	}
}

// TestTaskIndexConcurrentGrow: four goroutines look IDs up while one
// registers 2^16 of them, so every shard's index doubles several times under
// readers; every ID is found once its Register has returned.
func TestTaskIndexConcurrentGrow(t *testing.T) {
	const n, readers = 1 << 16, 4
	ti := NewTaskIndex()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m-%08d", i)
	}
	var registered atomic.Int64 // IDs 0..registered-1 have returned from Register
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for done := false; !done; {
				k := int(registered.Load())
				done = k == n
				for _, i := range []int{k - 1, rng.Intn(k + 1)} {
					if i < 0 || i >= k {
						continue
					}
					if got, ok := ti.Lookup(ids[i]); !ok || got.MeasurementID != ids[i] {
						t.Errorf("Lookup(%s) after its Register returned = %+v, %v", ids[i], got, ok)
						return
					}
				}
			}
		}(r)
	}
	for i, id := range ids {
		ti.Register(core.Task{MeasurementID: id, PatternKey: "domain:x.com"})
		registered.Store(int64(i + 1))
	}
	wg.Wait()
	if ti.Len() != n {
		t.Fatalf("Len = %d, want %d", ti.Len(), n)
	}
}
