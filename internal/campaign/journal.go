package campaign

// The job journal: the dispatcher's crash-safe record of what already ran.
// Entries are JSON payloads inside internal/wire CRC frames — the same
// [len][crc][payload] framing the WAL and the binary batch lane use — so a
// kill mid-append leaves a torn tail the replay detects and drops, exactly
// like a WAL segment's. Beside the journal sits a cursor file maintained
// with the tmp+fsync+rename dance federation.Forwarder uses for its forward
// cursor: written once per run, it pins the campaign name, the expansion
// hash and the job count, refusing to resume a journal under a different
// spec.
//
// The exactly-once contract: a job's "done" entry is appended (and synced)
// before the job counts as complete, and replay deduplicates by job ID
// keeping the first done entry — so a job runs at least once, and appears
// in the recorded results exactly once, across any number of kills and
// resumes. "started" entries carry attempt accounting only. Reopening a
// journal truncates a torn tail before the first append, so entries written
// after a kill stay replayable.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"encore/internal/durable"
	"encore/internal/faultinject"
	"encore/internal/wire"
)

// Journal file names inside a campaign state directory.
const (
	journalFileName = "journal.bin"
	cursorFileName  = "campaign-cursor.json"
)

// journalKind is the frame payload kind byte for campaign journal entries.
// Journal files live in the campaign's private state directory, so the only
// constraint is that a torn WAL segment copied here by mistake decodes as
// "not a journal entry" — any value distinct from the wire record kinds
// does that.
const journalKind byte = 0x63 // 'c'

// Entry types.
const (
	entryStarted = "started"
	entryDone    = "done"
)

// journalEntry is one framed journal record.
type journalEntry struct {
	Type string `json:"type"`
	// JobID identifies the job; for done entries Result carries the full
	// outcome (Result.JobID matches).
	JobID string `json:"job_id"`
	// Attempt is 1 for a job's first start, incremented on each re-run
	// after a kill.
	Attempt int        `json:"attempt,omitempty"`
	At      time.Time  `json:"at"`
	Result  *JobResult `json:"result,omitempty"`
}

// ErrJournalCorrupt reports a journal frame that passed its CRC but does
// not decode — real corruption, never the torn tail a kill leaves (torn
// tails are detected by the framing and dropped silently, counted in
// ReplayState.TornTail).
var ErrJournalCorrupt = errors.New("campaign: corrupt journal entry")

// ErrSpecMismatch reports a resume attempt against a state directory whose
// cursor pins a different campaign or expansion: the journal's job IDs
// would not name the same work.
var ErrSpecMismatch = errors.New("campaign: state directory belongs to a different spec")

// ReplayState is what a journal replay recovers.
type ReplayState struct {
	// Done maps job ID to its recorded result; first done entry wins.
	Done map[string]*JobResult
	// Starts counts started entries per job ID (attempt accounting).
	Starts map[string]int
	// TornTail reports whether the journal ended in a torn frame (the
	// expected artifact of a kill mid-append); the tail was dropped.
	TornTail bool
}

// Journal is the append-side handle; append is safe for concurrent use by
// the dispatcher's worker slots.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	buf []byte
}

// openJournal opens (creating if missing) the journal in dir and replays
// its existing entries. A torn tail is cut off (and the cut fsynced) before
// anything is appended: an entry written after torn bytes would never be
// replayed, so every later resume would re-run its job.
func openJournal(dir string) (*Journal, *ReplayState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	state, end, err := replayJournal(f)
	if err == nil && state.TornTail {
		if err = f.Truncate(end); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f}, state, nil
}

// replayJournal reads every decodable entry and returns the offset where
// the last whole frame ends; a torn tail stops the replay cleanly.
func replayJournal(r io.Reader) (*ReplayState, int64, error) {
	state := &ReplayState{Done: map[string]*JobResult{}, Starts: map[string]int{}}
	fr := wire.NewFrameReader(r)
	var end int64
	for {
		frame, err := fr.NextFrame()
		if errors.Is(err, io.EOF) {
			return state, end, nil
		}
		if wire.Torn(err) {
			state.TornTail = true
			return state, end, nil
		}
		if err != nil {
			return nil, 0, err
		}
		end += int64(len(frame))
		payload := frame[wire.FrameHeaderLen:]
		if wire.PayloadKind(payload) != journalKind {
			return nil, 0, fmt.Errorf("%w: frame kind %d", ErrJournalCorrupt, wire.PayloadKind(payload))
		}
		var e journalEntry
		if err := json.Unmarshal(payload[1:], &e); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
		}
		switch e.Type {
		case entryStarted:
			state.Starts[e.JobID]++
		case entryDone:
			if e.Result == nil {
				return nil, 0, fmt.Errorf("%w: done entry without result", ErrJournalCorrupt)
			}
			if _, dup := state.Done[e.JobID]; !dup {
				state.Done[e.JobID] = e.Result
			}
		default:
			return nil, 0, fmt.Errorf("%w: entry type %q", ErrJournalCorrupt, e.Type)
		}
	}
}

// append frames, writes, and fsyncs one entry. The fsync is what lets the
// dispatcher count the job complete: a kill after append returns finds the
// entry on replay.
func (j *Journal) append(e journalEntry) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	buf, mark := wire.BeginFrame(j.buf[:0])
	buf = append(buf, journalKind)
	buf = append(buf, payload...)
	wire.FinishFrame(buf, mark)
	j.buf = buf
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// cursorState is the JSON persisted beside the journal, written atomically
// (tmp + fsync + rename) once per run.
type cursorState struct {
	Version   int    `json:"version"`
	Name      string `json:"name"`
	SpecHash  string `json:"spec_hash"`
	TotalJobs int    `json:"total_jobs"`
}

const cursorVersion = 1

// loadCursor reads the cursor; a missing file returns ok=false (fresh
// state directory).
func loadCursor(dir string) (cursorState, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, cursorFileName))
	if os.IsNotExist(err) {
		return cursorState{}, false, nil
	}
	if err != nil {
		return cursorState{}, false, err
	}
	var c cursorState
	if err := json.Unmarshal(data, &c); err != nil {
		return cursorState{}, false, fmt.Errorf("campaign: corrupt cursor file: %w", err)
	}
	return c, true, nil
}

// saveCursor persists the cursor atomically, so a kill mid-save leaves
// either the old cursor or the new one, never a torn file.
func saveCursor(dir string, c cursorState) error {
	return durable.ReplaceFile(faultinject.OS(), filepath.Join(dir, cursorFileName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(c)
	})
}
