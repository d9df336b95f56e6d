package results

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/faultinject"
	"encore/internal/geo"
)

// walTestMeasurement builds a deterministic measurement with every field
// populated, cycling through states and regions.
func walTestMeasurement(i int, state core.State) Measurement {
	return Measurement{
		MeasurementID:  fmt.Sprintf("wal-%d", i),
		PatternKey:     fmt.Sprintf("domain:site%d.com", i%7),
		TargetURL:      fmt.Sprintf("http://site%d.com/favicon.ico", i%7),
		TaskType:       core.TaskTypes()[i%4],
		State:          state,
		DurationMillis: float64(i) * 1.5,
		ClientIP:       fmt.Sprintf("10.1.%d.%d", i%250, (i*7)%250),
		Region:         geo.CountryCode([]string{"US", "CN", "IR", "PK", "DE"}[i%5]),
		Browser:        core.BrowserFamilies()[i%5],
		OriginSite:     fmt.Sprintf("origin%d.example.org", i%3),
		Control:        i%11 == 0,
		Received:       time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
	}
}

// buildWALStore creates a store with a WAL attached in dir and runs fill.
// The WAL is closed before returning so every record is durable.
func buildWALStore(t *testing.T, dir string, cfg WALConfig, fill func(s *Store)) *Store {
	t.Helper()
	cfg.Dir = dir
	w, err := OpenWAL(cfg)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	s := NewStore()
	s.AddObserver(w)
	fill(s)
	if err := w.Close(); err != nil {
		t.Fatalf("WAL close: %v", err)
	}
	return s
}

// snapshotJSONL renders the store's canonical JSONL snapshot.
func snapshotJSONL(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// requireRecovered replays dir and asserts the recovered snapshot is
// bit-for-bit identical to want's.
func requireRecovered(t *testing.T, dir string, want *Store) (*Store, WALRecoveryStats) {
	t.Helper()
	got, stats, err := OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatalf("OpenStoreFromWAL: %v", err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("recovered %d measurements, want %d", got.Len(), want.Len())
	}
	if g, w := snapshotJSONL(t, got), snapshotJSONL(t, want); !bytes.Equal(g, w) {
		t.Fatalf("recovered snapshot differs from live store\nrecovered:\n%s\nlive:\n%s", g, w)
	}
	return got, stats
}

func TestWALRoundTripBitForBit(t *testing.T) {
	dir := t.TempDir()
	live := buildWALStore(t, dir, WALConfig{}, func(s *Store) {
		for i := 0; i < 500; i++ {
			state := core.StateSuccess
			switch i % 10 {
			case 0:
				state = core.StateInit
			case 1, 2:
				state = core.StateFailure
			}
			if err := s.Add(walTestMeasurement(i, state)); err != nil {
				t.Fatal(err)
			}
		}
		// Upgrade a slice of the init-only records in place.
		for i := 0; i < 500; i += 20 {
			m := walTestMeasurement(i, core.StateSuccess)
			m.DurationMillis += 1000
			if err := s.Add(m); err != nil {
				t.Fatal(err)
			}
		}
	})
	_, stats := requireRecovered(t, dir, live)
	if stats.Records != 500+25 {
		t.Errorf("replayed %d records, want %d", stats.Records, 525)
	}
	if stats.TornSegments != 0 {
		t.Errorf("unexpected torn segments: %d", stats.TornSegments)
	}
}

func TestWALPreservesNonUTCTimestamps(t *testing.T) {
	dir := t.TempDir()
	zone := time.FixedZone("UTC+7", 7*3600)
	live := buildWALStore(t, dir, WALConfig{}, func(s *Store) {
		m := walTestMeasurement(1, core.StateSuccess)
		m.Received = time.Date(2014, 5, 1, 9, 30, 0, 123456789, zone)
		if err := s.Add(m); err != nil {
			t.Fatal(err)
		}
	})
	requireRecovered(t, dir, live)
}

func TestWALRecoverEmptyAndMissingDir(t *testing.T) {
	got, stats, err := OpenStoreFromWAL(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatalf("missing dir: %v", err)
	}
	if got.Len() != 0 || stats.Records != 0 {
		t.Fatalf("missing dir recovered %d measurements", got.Len())
	}

	dir := t.TempDir()
	live := buildWALStore(t, dir, WALConfig{}, func(s *Store) {})
	recovered, _ := requireRecovered(t, dir, live)
	if recovered.Len() != 0 {
		t.Fatalf("empty WAL recovered %d measurements", recovered.Len())
	}
}

// TestWALReplayRefusesOutOfRangeEnums: a logged record whose browser family
// or task type no live store accepts fails recovery, as an invalid state
// does, instead of reaching the aggregator's tallies.
func TestWALReplayRefusesOutOfRangeEnums(t *testing.T) {
	for name, m := range map[string]Measurement{
		"browser":   {MeasurementID: "b", PatternKey: "k", State: core.StateSuccess, Browser: 42},
		"task type": {MeasurementID: "t", PatternKey: "k", State: core.StateSuccess, TaskType: 9},
	} {
		dir := t.TempDir()
		w, err := OpenWAL(WALConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		w.CommitStream(1, 1, nil, m) // as a log written before the gate would hold it
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenStoreFromWAL(dir); err == nil {
			t.Fatalf("out-of-range %s replayed", name)
		}
	}
}

func TestWALUpgradeRetractionOnReplay(t *testing.T) {
	dir := t.TempDir()
	live := buildWALStore(t, dir, WALConfig{}, func(s *Store) {
		first := walTestMeasurement(0, core.StateInit)
		later := walTestMeasurement(1, core.StateSuccess)
		if err := s.Add(first); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(later); err != nil {
			t.Fatal(err)
		}
		upgraded := walTestMeasurement(0, core.StateFailure)
		if err := s.Add(upgraded); err != nil {
			t.Fatal(err)
		}
		// A downgrade back to init must not commit (and so must not be
		// logged).
		if err := s.Add(walTestMeasurement(0, core.StateInit)); err != nil {
			t.Fatal(err)
		}
	})
	got, stats := requireRecovered(t, dir, live)
	if stats.Records != 3 {
		t.Errorf("logged %d records, want 3 (downgrade must not be logged)", stats.Records)
	}
	m, ok := got.Get("wal-0")
	if !ok || m.State != core.StateFailure {
		t.Fatalf("recovered wal-0 state = %v, want failure", m.State)
	}
	// The upgraded record keeps its original snapshot position: first.
	if all := got.All(); all[0].MeasurementID != "wal-0" {
		t.Fatalf("upgraded record moved to position of %q", all[0].MeasurementID)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := WALConfig{SegmentBytes: 2048, Shards: 2}
	live := buildWALStore(t, dir, cfg, func(s *Store) {
		for i := 0; i < 300; i++ {
			if err := s.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
				t.Fatal(err)
			}
		}
	})
	segs, err := walSegments(faultinject.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, files := range segs {
		total += len(files)
	}
	if total < 4 {
		t.Fatalf("expected rotation to produce several segments, got %d", total)
	}
	requireRecovered(t, dir, live)
}

func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	live := buildWALStore(t, dir, WALConfig{Shards: 1}, func(s *Store) {
		for i := 0; i < 50; i++ {
			if err := s.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
				t.Fatal(err)
			}
		}
	})
	segs, err := walSegments(faultinject.OS(), dir)
	if err != nil || len(segs[0]) == 0 {
		t.Fatalf("expected one shard of segments, got %v (err %v)", segs, err)
	}
	last := segs[0][len(segs[0])-1].path

	t.Run("truncated-frame", func(t *testing.T) {
		// Append a frame header that promises more bytes than exist — the
		// torn-write shape of a crash mid-append.
		f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4, 9, 9}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, stats := requireRecovered(t, dir, live)
		if stats.TornSegments != 1 {
			t.Errorf("TornSegments = %d, want 1", stats.TornSegments)
		}
	})

	t.Run("corrupt-crc", func(t *testing.T) {
		// Flip a byte inside the garbage tail so the CRC check trips instead
		// of the length read.
		data, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		data = data[:len(data)-10] // drop the torn header from the subtest above
		full := append([]byte{}, data...)
		// Corrupt the final record's payload in place.
		full[len(full)-3] ^= 0xff
		if err := os.WriteFile(last, full, 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats, err := OpenStoreFromWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TornSegments != 1 {
			t.Errorf("TornSegments = %d, want 1", stats.TornSegments)
		}
		if got.Len() != live.Len()-1 {
			t.Errorf("recovered %d measurements, want %d (one lost to the corrupted tail)", got.Len(), live.Len()-1)
		}
	})
}

func TestWALCompactionDropsSupersededRecords(t *testing.T) {
	dir := t.TempDir()
	live := buildWALStore(t, dir, WALConfig{SegmentBytes: 4096, Shards: 2}, func(s *Store) {
		// Every measurement is committed init-first then upgraded — the log
		// holds 2N records for N live measurements.
		for i := 0; i < 200; i++ {
			if err := s.Add(walTestMeasurement(i, core.StateInit)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			if err := s.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
				t.Fatal(err)
			}
		}
	})

	w, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 4096, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, stats := requireRecovered(t, dir, live)
	if stats.Records != 200 {
		t.Errorf("compacted log replays %d records, want 200 (superseded entries dropped)", stats.Records)
	}
	if got.Len() != 200 {
		t.Errorf("recovered %d measurements, want 200", got.Len())
	}
}

func TestWALCompactionThenAppend(t *testing.T) {
	dir := t.TempDir()
	cfg := WALConfig{SegmentBytes: 4096, Shards: 2}
	live := buildWALStore(t, dir, cfg, func(s *Store) {
		for i := 0; i < 100; i++ {
			if err := s.Add(walTestMeasurement(i, core.StateInit)); err != nil {
				t.Fatal(err)
			}
		}
	})

	// Restart: recover, reopen the WAL, compact, and keep appending — the
	// full collector restart cycle.
	recovered, _ := requireRecovered(t, dir, live)
	w, err := OpenWAL(cfg.withDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	recovered.AddObserver(w)
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := recovered.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 150; i++ {
		if err := recovered.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	requireRecovered(t, dir, recovered)
}

// withDir returns a copy of the config pointed at dir (test helper).
func (c WALConfig) withDir(dir string) WALConfig {
	c.Dir = dir
	return c
}

func TestWALReopenContinuesSegmentNumbering(t *testing.T) {
	dir := t.TempDir()
	cfg := WALConfig{SegmentBytes: 1024, Shards: 1}
	live := buildWALStore(t, dir, cfg, func(s *Store) {
		for i := 0; i < 40; i++ {
			if err := s.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
				t.Fatal(err)
			}
		}
	})
	before, _ := walSegments(faultinject.OS(), dir)

	w, err := OpenWAL(cfg.withDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	recovered, _ := requireRecovered(t, dir, live)
	recovered.AddObserver(w)
	for i := 40; i < 80; i++ {
		if err := recovered.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := walSegments(faultinject.OS(), dir)
	if len(after[0]) <= len(before[0]) {
		t.Fatalf("reopen appended no new segments (%d -> %d)", len(before[0]), len(after[0]))
	}
	for i := 1; i < len(after[0]); i++ {
		if after[0][i].index <= after[0][i-1].index {
			t.Fatalf("segment indexes not strictly increasing: %v", after[0])
		}
	}
	requireRecovered(t, dir, recovered)
}

func TestWALOpenCleansStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, segmentName(0, 3)+".tmp")
	if err := os.WriteFile(stray, []byte("partial compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray tmp file survived OpenWAL: %v", err)
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			live := buildWALStore(t, dir, WALConfig{Policy: policy, Interval: 5 * time.Millisecond}, func(s *Store) {
				for i := 0; i < 64; i++ {
					if err := s.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
						t.Fatal(err)
					}
				}
			})
			requireRecovered(t, dir, live)
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "none": SyncNone}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}

func TestWALConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 32 << 10, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.AddObserver(w)

	const workers = 8
	const perWorker = 400
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m := walTestMeasurement(wkr*perWorker+i, core.StateInit)
				if err := s.Add(m); err != nil {
					t.Error(err)
					return
				}
				m.State = core.StateSuccess
				if err := s.Add(m); err != nil {
					t.Error(err)
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != workers*perWorker {
		t.Fatalf("stored %d, want %d", s.Len(), workers*perWorker)
	}
	requireRecovered(t, dir, s)
}

func TestWALSequenceContinuesAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	live := buildWALStore(t, dir, WALConfig{}, func(s *Store) {
		for i := 0; i < 10; i++ {
			if err := s.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
				t.Fatal(err)
			}
		}
	})
	recovered, _ := requireRecovered(t, dir, live)
	newcomer := walTestMeasurement(1000, core.StateSuccess)
	if err := recovered.Add(newcomer); err != nil {
		t.Fatal(err)
	}
	all := recovered.All()
	if got := all[len(all)-1].MeasurementID; got != newcomer.MeasurementID {
		t.Fatalf("post-recovery insert landed at %q's position, want last", got)
	}
}

func TestWALStatsAndErr(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 1024, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.AddObserver(w)
	for i := 0; i < 50; i++ {
		if err := s.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != 50 {
		t.Errorf("Stats.Records = %d, want 50", st.Records)
	}
	if st.Bytes == 0 || st.Segments == 0 || st.Rotations == 0 {
		t.Errorf("Stats missing counters: %+v", st)
	}
	if w.Err() != nil {
		t.Errorf("unexpected sticky error: %v", w.Err())
	}
}

func TestWALReopenPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	live := buildWALStore(t, dir, WALConfig{Shards: 2}, func(s *Store) {
		for i := 0; i < 50; i++ {
			if err := s.Add(walTestMeasurement(i, core.StateInit)); err != nil {
				t.Fatal(err)
			}
		}
	})

	// Reopen with a different configured shard count: the pinned on-disk
	// layout must win, so every upgrade lands in the same shard log as its
	// insert and replay stays deterministic.
	w, err := OpenWAL(WALConfig{Dir: dir, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Config().Shards; got != 2 {
		t.Fatalf("reopen used %d shards, want pinned 2", got)
	}
	recovered, _ := requireRecovered(t, dir, live)
	recovered.AddObserver(w)
	for i := 0; i < 50; i++ {
		if err := recovered.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	final, _ := requireRecovered(t, dir, recovered)
	m, _ := final.Get("wal-7")
	if m.State != core.StateSuccess {
		t.Fatalf("upgrade lost across reopen: state %v", m.State)
	}
}
