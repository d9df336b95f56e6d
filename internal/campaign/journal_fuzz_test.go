package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"encore/internal/wire"
)

// journalSeed returns the bytes Journal.append writes for a short run: two
// jobs started, both done, one done twice.
func journalSeed(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	for _, e := range []journalEntry{
		{Type: entryStarted, JobID: "j1", Attempt: 1, At: at},
		{Type: entryStarted, JobID: "j2", Attempt: 1, At: at},
		{Type: entryDone, JobID: "j1", At: at, Result: &JobResult{JobID: "j1", Ordinal: 0, Seed: 7, Attempt: 1}},
		{Type: entryDone, JobID: "j2", At: at, Result: &JobResult{JobID: "j2", Ordinal: 1, Err: "synthetic failure"}},
		{Type: entryDone, JobID: "j2", At: at, Result: &JobResult{JobID: "j2", Ordinal: 1}},
	} {
		if err := j.append(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// journalFrame frames payload with the given kind byte, CRC intact.
func journalFrame(kind byte, payload string) []byte {
	buf, mark := wire.BeginFrame(nil)
	buf = append(buf, kind)
	buf = append(buf, payload...)
	wire.FinishFrame(buf, mark)
	return buf
}

// FuzzReplayJournal checks the journal replay on arbitrary bytes: it never
// panics, every error wraps ErrJournalCorrupt, and a successful replay cut
// at the offset it returned (what openJournal truncates to) replays to the
// same state with no torn tail.
func FuzzReplayJournal(f *testing.F) {
	good := journalSeed(f)
	f.Add(good)
	f.Add(good[:len(good)-7])                    // torn mid-payload
	f.Add(good[:len(good)-len(good)/3])          // torn mid-file
	f.Add(append(good[:len(good):len(good)], 1)) // torn mid-header
	for _, at := range []int{2, wire.FrameHeaderLen + 3, len(good) - 2} {
		flipped := bytes.Clone(good)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	f.Add(append(bytes.Clone(good), journalFrame(0x01, `{}`)...))                       // foreign kind
	f.Add(append(bytes.Clone(good), journalFrame(journalKind, `{"type":`)...))          // bad JSON
	f.Add(append(bytes.Clone(good), journalFrame(journalKind, `{"type":"done"}`)...))   // done, no result
	f.Add(append(bytes.Clone(good), journalFrame(journalKind, `{"type":"paused"}`)...)) // unknown type
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		state, end, err := replayJournal(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("replay error %v does not wrap ErrJournalCorrupt", err)
			}
			return
		}
		if end < 0 || end > int64(len(data)) || (!state.TornTail && end != int64(len(data))) {
			t.Fatalf("replay of %d bytes ended at %d (torn %v)", len(data), end, state.TornTail)
		}
		again, againEnd, err := replayJournal(bytes.NewReader(data[:end]))
		if err != nil {
			t.Fatalf("replaying the whole-frame prefix: %v", err)
		}
		if again.TornTail || againEnd != end {
			t.Fatalf("whole-frame prefix replayed torn=%v to %d, want untorn to %d", again.TornTail, againEnd, end)
		}
		if !reflect.DeepEqual(again.Done, state.Done) || !reflect.DeepEqual(again.Starts, state.Starts) {
			t.Fatalf("whole-frame prefix replayed to a different state:\n%+v\nwant %+v", again, state)
		}
	})
}
