package results

// Tests for the positioned, shard-merged WAL tail: a seeded property test
// holding it equal to the filter-from-the-start scan across rotation,
// compaction under a moving retention floor, torn tails and concurrent
// committers, and a cost test that a pass reads what is new and nothing else.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/faultinject"
	"encore/internal/wire"
)

// TestWALTailMatchesFilteredScan drives a tail the way a forwarder does —
// passes that skip what was consumed, a retention floor at the contiguous
// consumed prefix — while committers append, segments rotate every few
// records, Compact rewrites the shards and restarts leave torn tails. Every
// position past the starting cursor must be yielded exactly once, a position
// may come round again only in the pass after a compaction or a restart (and
// is then skipped), records of one ID arrive in file order, and what
// ReadRecordFrames(after) still finds at the end is byte-for-byte what the
// tail yielded.
func TestWALTailMatchesFilteredScan(t *testing.T) {
	for _, seed := range []uint64{1, 7, 424242} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { tailProperty(t, seed) })
	}
}

func tailProperty(t *testing.T, seed uint64) {
	const committers, idsPerCommitter, rounds = 3, 40, 14
	cfg := WALConfig{Dir: t.TempDir(), SegmentBytes: 2048, Shards: 4, Policy: SyncNone, Interval: 2 * time.Millisecond}
	rng := faultinject.NewRNG(seed)
	var (
		next     atomic.Uint64 // the commit counter a store would own
		floor    atomic.Uint64
		mu       sync.Mutex
		appended = map[uint64]string{} // position -> measurement ID
		firstSeq = map[string]uint64{}
	)
	open := func() *WAL {
		w, err := OpenWAL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.SetRetention(floor.Load)
		return w
	}
	// commit appends n records of IDs only committer g writes, so one ID's
	// positions rise in file order as they do under a store shard lock.
	commit := func(w *WAL, r *faultinject.RNG, g, n int) {
		for k := 0; k < n; k++ {
			i := int(r.Uint64()%idsPerCommitter)*committers + g
			mu.Lock()
			c := next.Add(1)
			m := walTestMeasurement(i, core.StateSuccess)
			m.DurationMillis = float64(c)
			if firstSeq[m.MeasurementID] == 0 {
				firstSeq[m.MeasurementID] = c
			}
			seq := firstSeq[m.MeasurementID]
			appended[c] = m.MeasurementID
			mu.Unlock()
			w.CommitStream(c, seq, nil, m)
		}
	}

	w := open()
	commit(w, rng, 0, 50)
	after := next.Load() // the cursor the tail starts from
	floor.Store(after)
	tail := w.Tail()

	got := map[uint64][]byte{}
	perID := map[string][]uint64{}
	lwm := after
	mayRepeat := true // a fresh tail scans from the start
	floorAtCompact := after
	pass := func(w *WAL) int {
		yielded := 0
		err := tail.Read(func(c uint64) bool {
			_, seen := got[c]
			if seen || c <= after {
				if !mayRepeat {
					t.Errorf("position %d read again without a compaction or restart before the pass", c)
				}
				return true
			}
			return false
		}, func(c uint64, frame []byte) error {
			_, _, rec, err := wire.DecodeRecord(frame[wire.FrameHeaderLen:])
			if err != nil {
				return err
			}
			got[c] = append([]byte(nil), frame...)
			perID[rec.MeasurementID] = append(perID[rec.MeasurementID], c)
			yielded++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		mayRepeat = false
		for got[lwm+1] != nil {
			lwm++
		}
		floor.Store(lwm)
		return yielded
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < committers; g++ {
			wg.Add(1)
			r := faultinject.NewRNG(seed ^ uint64(round*committers+g+1)<<20)
			go func(g int) {
				defer wg.Done()
				commit(w, r, g, int(r.Uint64()%60)+1)
			}(g)
		}
		for ops := int(rng.Uint64()%3) + 1; ops > 0; ops-- {
			if rng.Uint64()%3 == 0 {
				floorAtCompact = floor.Load()
				if err := w.Compact(); err != nil {
					t.Fatal(err)
				}
				mayRepeat = true
			} else {
				pass(w)
			}
		}
		wg.Wait()
		if rng.Uint64()%3 == 0 {
			// Restart with a torn tail: half a frame after the last whole one
			// of some shard's newest segment, as a crash mid-append leaves.
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(cfg.Dir, fmt.Sprintf("wal-%03d-*.seg", rng.Uint64()%4)))
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) > 0 {
				sort.Strings(segs)
				m := walTestMeasurement(0, core.StateFailure)
				frame, _ := wire.AppendRecordFrame(nil, 1<<40, 1<<40, (*wire.Record)(&m))
				f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(frame[:len(frame)/2])
				f.Close()
			}
			w = open()
			tail, mayRepeat = w.Tail(), true
		}
	}
	for pass(w) > 0 {
	}
	defer w.Close()

	for c := after + 1; c <= next.Load(); c++ {
		if got[c] == nil {
			t.Fatalf("position %d (%s) never yielded; cursor %d, last %d", c, appended[c], after, next.Load())
		}
	}
	if len(got) != int(next.Load()-after) {
		t.Fatalf("tail yielded %d positions, %d were appended past the cursor", len(got), next.Load()-after)
	}
	for id, cs := range perID {
		if !sort.SliceIsSorted(cs, func(i, j int) bool { return cs[i] < cs[j] }) {
			t.Fatalf("records of %s yielded out of file order: %v", id, cs)
		}
	}
	ref := map[uint64]bool{}
	err := w.ReadRecordFrames(after, func(c uint64, frame []byte) error {
		if ref[c] {
			t.Errorf("ReadRecordFrames yielded position %d twice", c)
		}
		ref[c] = true
		if !bytes.Equal(frame, got[c]) {
			t.Errorf("position %d: the tail's frame differs from the scan's", c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := floorAtCompact + 1; c <= next.Load(); c++ {
		if !ref[c] {
			t.Fatalf("position %d is past the last compaction's floor %d but gone from the log", c, floorAtCompact)
		}
	}
}

// countingFS counts the bytes read from files it opens and the directory
// listings asked of it.
type countingFS struct {
	faultinject.FS
	read, globs *atomic.Int64
}

func (c countingFS) Open(name string) (faultinject.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.read}, nil
}

func (c countingFS) Glob(pattern string) ([]string, error) {
	c.globs.Add(1)
	return c.FS.Glob(pattern)
}

type countingFile struct {
	faultinject.File
	read *atomic.Int64
}

func (f countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.read.Add(int64(n))
	return n, err
}

// TestWALTailPassReadsOnlyNewBytes is the cost property: however long the log
// has grown — across rotations — a pass reads exactly the bytes appended
// since the previous pass and never lists the directory.
func TestWALTailPassReadsOnlyNewBytes(t *testing.T) {
	var read, globs atomic.Int64
	w, err := OpenWAL(WALConfig{
		Dir: t.TempDir(), SegmentBytes: 32 << 10, Shards: 4, Policy: SyncNone,
		FS: countingFS{faultinject.OS(), &read, &globs},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tail := w.Tail()
	n := 0
	grow := func(k int) {
		for ; k > 0; k-- {
			n++
			w.CommitStream(uint64(n), uint64(n), nil, walTestMeasurement(n, core.StateSuccess))
		}
	}
	drain := func() (frames int) {
		if err := tail.Read(func(uint64) bool { return false }, func(uint64, []byte) error { frames++; return nil }); err != nil {
			t.Fatal(err)
		}
		return frames
	}
	for _, logLen := range []int{1000, 8000, 40000} {
		grow(logLen - n)
		drain()
		for i := 0; i < 3; i++ {
			bytes0, read0, globs0 := w.bytes.Load(), read.Load(), globs.Load()
			grow(200)
			if got := drain(); got != 200 {
				t.Fatalf("log of %d: pass yielded %d frames, want the 200 new ones", n, got)
			}
			if newBytes, readBytes := int64(w.bytes.Load()-bytes0), read.Load()-read0; readBytes != newBytes {
				t.Fatalf("log of %d records: pass read %d bytes for %d new bytes", n, readBytes, newBytes)
			}
			if globs.Load() != globs0 {
				t.Fatalf("log of %d records: pass listed the directory", n)
			}
		}
	}
	if w.Stats().Rotations == 0 {
		t.Fatal("the log never rotated; the test did not cross a segment boundary")
	}
}

// TestWALTailSurvivesConcurrentCompaction runs passes while another goroutine
// appends and compacts: a pass that finds its files replaced mid-read must
// neither fail nor lose a position — it gives the shard up and the next pass
// re-reads it.
func TestWALTailSurvivesConcurrentCompaction(t *testing.T) {
	w, err := OpenWAL(WALConfig{Dir: t.TempDir(), SegmentBytes: 4096, Shards: 2, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var floor atomic.Uint64
	w.SetRetention(floor.Load)
	const total = 6000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 1; n <= total; n++ {
			w.CommitStream(uint64(n), uint64(n), nil, walTestMeasurement(n%500, core.StateSuccess))
			if n%150 == 0 {
				if err := w.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	tail, seen, lwm := w.Tail(), map[uint64]bool{}, uint64(0)
	pass := func() {
		err := tail.Read(func(c uint64) bool { return seen[c] }, func(c uint64, _ []byte) error {
			seen[c] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for seen[lwm+1] {
			lwm++
		}
		floor.Store(lwm)
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		pass()
	}
	pass()
	if lwm != total {
		t.Fatalf("consumed prefix ends at %d of %d with %d positions seen", lwm, total, len(seen))
	}
}
