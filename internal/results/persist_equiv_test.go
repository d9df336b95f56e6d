package results

// The store has two persistence formats: the JSONL snapshot
// (WriteJSONL/ReadJSONL, the export encore-analyze reads) and the WAL
// (the durable commit log). These tests pin the two to each other on the edge
// cases that historically make persistence formats drift — empty stores,
// in-place upgrades with a refused retraction, and control-traffic records —
// by asserting
// that a store reloaded through either format produces the identical
// canonical snapshot.

import (
	"bytes"
	"errors"
	"testing"

	"encore/internal/core"
)

// persistCase builds one edge-case store under a WAL and returns it.
type persistCase struct {
	name string
	fill func(t *testing.T, s *Store)
}

func persistCases() []persistCase {
	return []persistCase{
		{name: "empty", fill: func(t *testing.T, s *Store) {}},
		{name: "upgrade-retraction", fill: func(t *testing.T, s *Store) {
			// init → success, then a failure for the same ID that the store
			// refuses: only the success may survive in either format.
			for _, state := range []core.State{core.StateInit, core.StateSuccess} {
				if err := s.Add(walTestMeasurement(3, state)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Add(walTestMeasurement(3, core.StateFailure)); !errors.Is(err, ErrConflictingData) {
				t.Fatalf("retraction to failure: err = %v, want ErrConflictingData", err)
			}
		}},
		{name: "control-traffic", fill: func(t *testing.T, s *Store) {
			for i := 0; i < 30; i++ {
				m := walTestMeasurement(i, core.StateSuccess)
				m.Control = i%2 == 0
				if err := s.Add(m); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "abandoned-inits", fill: func(t *testing.T, s *Store) {
			for i := 0; i < 20; i++ {
				if err := s.Add(walTestMeasurement(i, core.StateInit)); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
}

func TestWALAndJSONLRoundTripAgree(t *testing.T) {
	for _, tc := range persistCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			live := buildWALStore(t, dir, WALConfig{}, func(s *Store) { tc.fill(t, s) })
			want := snapshotJSONL(t, live)

			// JSONL round trip.
			viaJSONL := NewStore()
			if err := viaJSONL.ReadJSONL(bytes.NewReader(want)); err != nil {
				t.Fatalf("ReadJSONL: %v", err)
			}
			if got := snapshotJSONL(t, viaJSONL); !bytes.Equal(got, want) {
				t.Errorf("JSONL round trip drifted:\n got %s\nwant %s", got, want)
			}

			// WAL round trip.
			viaWAL, _, err := OpenStoreFromWAL(dir)
			if err != nil {
				t.Fatalf("OpenStoreFromWAL: %v", err)
			}
			if got := snapshotJSONL(t, viaWAL); !bytes.Equal(got, want) {
				t.Errorf("WAL round trip drifted:\n got %s\nwant %s", got, want)
			}

			// And the two reloaded stores agree with each other on the
			// aggregate view analysis consumes.
			jsonGroups := Aggregate(viaJSONL.All())
			walGroups := Aggregate(viaWAL.All())
			if len(jsonGroups) != len(walGroups) {
				t.Fatalf("aggregation drifted: %d groups via JSONL, %d via WAL", len(jsonGroups), len(walGroups))
			}
		})
	}
}

// TestJSONLRoundTripEmptyLinesAndUpgrades covers the scanner-side edge cases
// of the JSONL reader that loads exports: blank lines are skipped
// and replayed upgrades converge to the live store.
func TestJSONLRoundTripEmptyLinesAndUpgrades(t *testing.T) {
	s := NewStore()
	if err := s.Add(walTestMeasurement(0, core.StateInit)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(walTestMeasurement(0, core.StateSuccess)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	withBlanks := append([]byte("\n"), buf.Bytes()...)
	withBlanks = append(withBlanks, '\n')

	reloaded := NewStore()
	if err := reloaded.ReadJSONL(bytes.NewReader(withBlanks)); err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != 1 {
		t.Fatalf("reloaded %d measurements, want 1 (upgrade collapsed)", reloaded.Len())
	}
	m, _ := reloaded.Get("wal-0")
	if m.State != core.StateSuccess {
		t.Fatalf("reloaded state %v, want success", m.State)
	}
}
