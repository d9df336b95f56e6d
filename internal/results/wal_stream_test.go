package results

// Tests for the WAL's commit-stream features underneath resumable
// federation: the v2 record format (and v1 decode compatibility), tailing
// the log from a cursor with ReadRecords, the compaction retention floor
// that keeps unacknowledged records, and recovery restoring the store's
// commit counter so post-restart commits get fresh stream positions.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"encore/internal/core"
	"encore/internal/wire"
)

func TestWALRecordDecodesBothVersions(t *testing.T) {
	m := walTestMeasurement(3, core.StateSuccess)
	rec, err := wire.AppendRecord(nil, 7, 5, (*wire.Record)(&m))
	if err != nil {
		t.Fatal(err)
	}
	cseq, seq, decoded, err := wire.DecodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got := Measurement(decoded)
	if cseq != 7 || seq != 5 {
		t.Fatalf("decoded positions (%d, %d), want (7, 5)", cseq, seq)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("v2 round trip mutated the record:\n got %+v\nwant %+v", got, m)
	}

	// A v1 record is [1][uvarint seq][payload]; the payload is byte-for-byte
	// the v2 payload after its two uvarint positions. Build one by stripping
	// the v2 prefix and check the decoder falls back with commitSeq = seq.
	p := rec[1:]
	_, n1 := binary.Uvarint(p) // commitSeq
	_, n2 := binary.Uvarint(p[n1:])
	v1 := append([]byte{wire.KindRecordV1}, binary.AppendUvarint(nil, 5)...)
	v1 = append(v1, p[n1+n2:]...)
	cseq, seq, decoded, err = wire.DecodeRecord(v1)
	if err != nil {
		t.Fatalf("decoding v1 record: %v", err)
	}
	got = Measurement(decoded)
	if cseq != 5 || seq != 5 {
		t.Fatalf("v1 decode positions (%d, %d), want (5, 5)", cseq, seq)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("v1 round trip mutated the record:\n got %+v\nwant %+v", got, m)
	}
}

// readTail collects ReadRecords(after) results keyed by commit position.
func readTail(t *testing.T, w *WAL, after uint64) map[uint64]Measurement {
	t.Helper()
	out := make(map[uint64]Measurement)
	err := w.ReadRecords(after, func(cseq uint64, m Measurement) error {
		if _, dup := out[cseq]; dup {
			t.Fatalf("ReadRecords yielded position %d twice", cseq)
		}
		out[cseq] = m
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWALReadRecordsTailsFromCursor(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := NewStore()
	s.AddObserver(w)
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Add(walTestMeasurement(i, core.StateInit)); err != nil {
			t.Fatal(err)
		}
	}

	all := readTail(t, w, 0)
	if len(all) != n {
		t.Fatalf("ReadRecords(0) yielded %d records, want %d", len(all), n)
	}
	const after = 12
	tail := readTail(t, w, after)
	if len(tail) != n-after {
		t.Fatalf("ReadRecords(%d) yielded %d records, want %d", after, len(tail), n-after)
	}
	for cseq := range tail {
		if cseq <= after {
			t.Fatalf("ReadRecords(%d) yielded position %d at or below the cursor", after, cseq)
		}
	}
	// An in-place upgrade appends a new position; the tail past the old
	// high-water mark is exactly that one record.
	if err := s.Add(walTestMeasurement(0, core.StateFailure)); err != nil {
		t.Fatal(err)
	}
	tip := readTail(t, w, n)
	if len(tip) != 1 {
		t.Fatalf("tail past %d has %d records, want the 1 upgrade", n, len(tip))
	}
	for _, m := range tip {
		if m.State != core.StateFailure {
			t.Fatalf("tail record state = %q, want the upgraded %q", m.State, core.StateFailure)
		}
	}
}

func TestWALCompactionRetainsUnackedRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := NewStore()
	s.AddObserver(w)
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.Add(walTestMeasurement(i, core.StateInit)); err != nil {
			t.Fatal(err)
		}
	}
	// Upgrade every record: positions n+1..2n supersede 1..n.
	for i := 0; i < n; i++ {
		if err := s.Add(walTestMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}

	// Only the first 5 upgrades are acknowledged; everything past position
	// n+5 must survive compaction verbatim so a catch-up pass can still
	// forward it.
	const cursor = n + 5
	w.SetRetention(func() uint64 { return cursor })
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}

	tail := readTail(t, w, cursor)
	if len(tail) != n-5 {
		t.Fatalf("post-compaction tail has %d records, want %d unacked", len(tail), n-5)
	}
	for cseq, m := range tail {
		if m.State != core.StateSuccess {
			t.Fatalf("unacked record at %d has state %q, want %q", cseq, m.State, core.StateSuccess)
		}
	}
	// Replay equivalence: the compacted log still reproduces the store.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	replayed, _, err := OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := snapshotJSONL(t, s), snapshotJSONL(t, replayed); string(want) != string(got) {
		t.Fatalf("compacted replay diverged from live store:\n got %s\nwant %s", got, want)
	}
}

// streamRecorder captures commit-stream positions for assertions.
type streamRecorder struct {
	cseqs []uint64
}

func (r *streamRecorder) Commit(_ *Measurement, _ Measurement) {}
func (r *streamRecorder) CommitStream(commitSeq, _ uint64, _ *Measurement, _ Measurement) {
	r.cseqs = append(r.cseqs, commitSeq)
}

func TestWALRecoveryRestoresCommitCounter(t *testing.T) {
	dir := t.TempDir()
	const n = 15
	buildWALStore(t, dir, WALConfig{Policy: SyncAlways}, func(s *Store) {
		for i := 0; i < n; i++ {
			if err := s.Add(walTestMeasurement(i, core.StateInit)); err != nil {
				t.Fatal(err)
			}
		}
	})

	recovered, stats, err := OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxCommitSeq != n {
		t.Fatalf("recovery MaxCommitSeq = %d, want %d", stats.MaxCommitSeq, n)
	}
	// A commit after recovery must get a position past everything replayed —
	// if the counter restarted at zero, resumed cursor reads would skip it
	// and the federation tier would silently lose it.
	rec := &streamRecorder{}
	recovered.AddObserver(rec)
	if err := recovered.Add(walTestMeasurement(n, core.StateInit)); err != nil {
		t.Fatal(err)
	}
	if len(rec.cseqs) != 1 || rec.cseqs[0] != n+1 {
		t.Fatalf("post-recovery commit got position %v, want [%d]", rec.cseqs, n+1)
	}
}

// ReadRecords is ReadRecordFrames with each record decoded; a frame that
// passes its CRC but does not decode is a format error and aborts the pass.
func (w *WAL) ReadRecords(after uint64, fn func(commitSeq uint64, m Measurement) error) error {
	return w.ReadRecordFrames(after, func(cseq uint64, frame []byte) error {
		_, _, r, err := wire.DecodeRecord(frame[wire.FrameHeaderLen:])
		if err != nil {
			return fmt.Errorf("results: WAL record at position %d: %w", cseq, err)
		}
		return fn(cseq, Measurement(r))
	})
}
