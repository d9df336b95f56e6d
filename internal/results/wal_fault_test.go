package results

// Disk-surface chaos tests: the WAL writing through a faultinject.FaultFS.
// Each fault class asserts the sticky-error contract (the store keeps
// serving, the WAL reports Err, nothing is silently half-logged) and that
// recovery of whatever did reach stable storage still replays cleanly.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"encore/internal/core"
	"encore/internal/faultinject"
)

// buildFaultWAL opens a WAL over a FaultFS in dir with an attached store.
func buildFaultWAL(t *testing.T, dir string, cfg WALConfig) (*Store, *WAL, *faultinject.FaultFS) {
	t.Helper()
	ffs := faultinject.NewFaultFS()
	cfg.Dir = dir
	cfg.FS = ffs
	w, err := OpenWAL(cfg)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	s := NewStore()
	s.AddObserver(w)
	return s, w, ffs
}

func TestWALStickyErrorOnFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	s, w, ffs := buildFaultWAL(t, dir, WALConfig{Policy: SyncAlways, Shards: 2})
	for i := 0; i < 50; i++ {
		s.Add(walTestMeasurement(i, core.StateSuccess))
	}
	if err := w.Err(); err != nil {
		t.Fatalf("WAL errored before fault armed: %v", err)
	}
	ffs.InjectFsyncFailures()
	for i := 50; i < 100; i++ {
		s.Add(walTestMeasurement(i, core.StateSuccess))
	}
	if err := w.Err(); !errors.Is(err, faultinject.ErrInjectedFsync) {
		t.Fatalf("WAL.Err() = %v, want ErrInjectedFsync", err)
	}
	// The store itself is unaffected: commits kept landing in memory.
	if s.Len() != 100 {
		t.Fatalf("store has %d measurements, want 100", s.Len())
	}
	// The WAL stopped appending at the fault, so recovery yields the clean
	// durable prefix, not a half-written suffix.
	w.Close()
	rec, _, err := OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatalf("OpenStoreFromWAL: %v", err)
	}
	if rec.Len() == 0 || rec.Len() > 51 {
		t.Fatalf("recovered %d measurements, want the pre-fault prefix (1..51)", rec.Len())
	}
}

func TestWALStickyErrorOnENOSPC(t *testing.T) {
	dir := t.TempDir()
	s, w, ffs := buildFaultWAL(t, dir, WALConfig{Policy: SyncAlways, Shards: 1})
	for i := 0; i < 40; i++ {
		s.Add(walTestMeasurement(i, core.StateSuccess))
	}
	ffs.SetWriteBudget(10) // the next frame cannot fit
	for i := 40; i < 80; i++ {
		s.Add(walTestMeasurement(i, core.StateSuccess))
	}
	if err := w.Err(); !errors.Is(err, faultinject.ErrInjectedNoSpace) {
		t.Fatalf("WAL.Err() = %v, want ErrInjectedNoSpace", err)
	}
	if s.Len() != 80 {
		t.Fatalf("store has %d measurements, want 80", s.Len())
	}
	// Sync keeps reporting the sticky error.
	if err := w.Sync(); !errors.Is(err, faultinject.ErrInjectedNoSpace) {
		t.Fatalf("Sync() = %v, want the sticky ErrInjectedNoSpace", err)
	}
	w.Close()
	// The torn frame the partial write left behind is dropped at replay.
	rec, stats, err := OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatalf("OpenStoreFromWAL: %v", err)
	}
	if rec.Len() != 40 && stats.TornSegments == 0 {
		t.Fatalf("recovered %d measurements with %d torn segments; want the 40-record prefix or a torn tail", rec.Len(), stats.TornSegments)
	}
	if rec.Len() > 41 {
		t.Fatalf("recovered %d measurements, want at most the pre-fault prefix plus the failing record", rec.Len())
	}
}

func TestWALStickyErrorOnShortWrite(t *testing.T) {
	dir := t.TempDir()
	s, w, ffs := buildFaultWAL(t, dir, WALConfig{Policy: SyncAlways, Shards: 1})
	for i := 0; i < 30; i++ {
		s.Add(walTestMeasurement(i, core.StateSuccess))
	}
	ffs.InjectShortWrites(1)
	for i := 30; i < 60; i++ {
		s.Add(walTestMeasurement(i, core.StateSuccess))
	}
	if err := w.Err(); err == nil {
		t.Fatal("WAL.Err() = nil, want sticky short-write error")
	}
	w.Close()
	rec, stats, err := OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatalf("OpenStoreFromWAL: %v", err)
	}
	if stats.TornSegments != 1 {
		t.Fatalf("TornSegments = %d, want 1 (the half-written frame)", stats.TornSegments)
	}
	if rec.Len() != 30 {
		t.Fatalf("recovered %d measurements, want the 30-record clean prefix", rec.Len())
	}
}

func TestWALCrashTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, w, ffs := buildFaultWAL(t, dir, WALConfig{Policy: SyncNone, Shards: 2})
	for i := 0; i < 200; i++ {
		s.Add(walTestMeasurement(i, core.StateSuccess))
	}
	// Everything so far is made durable; snapshot it.
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	durable := snapshotJSONL(t, s)
	// More commits reach the files (Flush) but are never fsynced, then the
	// machine dies leaving a partial frame at each shard's tail.
	for i := 200; i < 240; i++ {
		s.Add(walTestMeasurement(i, core.StateSuccess))
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, err := ffs.Crash(7); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// Recovery reads the crash-mangled files through the host filesystem:
	// the torn tails are dropped and the recovered snapshot is bit-for-bit
	// the durable prefix.
	rec, stats, err := OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatalf("OpenStoreFromWAL: %v", err)
	}
	if stats.TornSegments == 0 {
		t.Fatal("TornSegments = 0, want torn tails from the crash")
	}
	if rec.Len() != 200 {
		t.Fatalf("recovered %d measurements, want the 200 durable ones", rec.Len())
	}
	if got := snapshotJSONL(t, rec); !bytes.Equal(got, durable) {
		t.Fatal("recovered snapshot differs from the durable prefix snapshot")
	}
}

// TestWALCrashOnFirstOpenLeavesBootableMeta crashes the machine right after
// the first open pinned the shard count: the meta file was fsynced before it
// was renamed into place, so the next boot reads the pin back instead of
// refusing a truncated wal-meta.json forever.
func TestWALCrashOnFirstOpenLeavesBootableMeta(t *testing.T) {
	dir := t.TempDir()
	_, w, ffs := buildFaultWAL(t, dir, WALConfig{Policy: SyncNone, Shards: 2})
	defer w.Close()
	if _, err := ffs.Crash(0); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	pinned, err := pinShardCount(faultinject.OS(), dir, 8)
	if err != nil {
		t.Fatalf("reading the shard pin after a crash on first open: %v", err)
	}
	if pinned != 2 {
		t.Fatalf("pinned shard count = %d after the crash, want the 2 first open wrote", pinned)
	}
	if _, _, err := OpenStoreFromWAL(dir); err != nil {
		t.Fatalf("OpenStoreFromWAL: %v", err)
	}
}

func TestWALFaultFSDefaultsToHostFS(t *testing.T) {
	// A nil WALConfig.FS must behave exactly as before the chaos tier
	// existed: plain host-filesystem round trip.
	dir := t.TempDir()
	live := buildWALStore(t, dir, WALConfig{}, func(s *Store) {
		for i := 0; i < 50; i++ {
			s.Add(walTestMeasurement(i, core.StateSuccess))
		}
	})
	requireRecovered(t, dir, live)
}

// opRecorder wraps a faultinject.FS and logs the operations that decide
// whether a new segment survives a crash: file creates, file fsyncs and
// directory fsyncs.
type opRecorder struct {
	faultinject.FS
	mu  sync.Mutex
	ops []string
}

func (r *opRecorder) record(op string) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

func (r *opRecorder) log() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ops...)
}

func (r *opRecorder) OpenFile(name string, flag int, perm os.FileMode) (faultinject.File, error) {
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 {
		r.record("create " + filepath.Base(name))
	}
	return recordedFile{f, r, "sync " + filepath.Base(name)}, nil
}

func (r *opRecorder) Open(name string) (faultinject.File, error) {
	f, err := r.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return recordedFile{f, r, "sync " + filepath.Base(name) + "/"}, nil
}

type recordedFile struct {
	faultinject.File
	r      *opRecorder
	syncOp string
}

func (f recordedFile) Sync() error {
	f.r.record(f.syncOp)
	return f.File.Sync()
}

// TestWALSyncsDirectoryAfterSegmentCreate checks that under SyncAlways a
// new segment's directory entry is made durable before the append that
// created it returns — for the first segment and for every rotation — and
// before any record in the segment is fsynced.
func TestWALSyncsDirectoryAfterSegmentCreate(t *testing.T) {
	dir := t.TempDir()
	rec := &opRecorder{FS: faultinject.NewFaultFS()}
	w, err := OpenWAL(WALConfig{Dir: dir, FS: rec, Policy: SyncAlways, Shards: 1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := NewStore()
	s.AddObserver(w)
	syncDir := "sync " + filepath.Base(dir) + "/"
	for i := 0; i < 12; i++ {
		if err := s.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
		ops := rec.log()
		for at, op := range ops {
			segment, ok := strings.CutPrefix(op, "create ")
			if !ok || !strings.HasSuffix(segment, ".seg") {
				continue
			}
			dirSynced := false
			for _, later := range ops[at+1:] {
				if later == syncDir {
					dirSynced = true
					break
				}
				if later == "sync "+segment {
					t.Fatalf("after append %d: %s fsynced a record before its directory entry: %v", i, segment, ops)
				}
			}
			if !dirSynced {
				t.Fatalf("after append %d: no directory fsync followed creating %s: %v", i, segment, ops)
			}
		}
	}
	if st := w.Stats(); st.Segments < 2 {
		t.Fatalf("the appends made %d segments, want a rotation", st.Segments)
	}
}
