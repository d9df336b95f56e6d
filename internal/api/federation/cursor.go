package federation

// The forward cursor: the durable record of how far up the edge store's
// commit stream the upstream has acknowledged. It is the piece that makes
// forwarding resumable — after a crash the forwarder replays the WAL from
// the cursor, so an edge outage of any length loses nothing the WAL kept.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"encore/internal/durable"
	"encore/internal/faultinject"
)

// cursorFileVersion is the on-disk cursor format version.
const cursorFileVersion = 1

// cursorFile is the JSON persisted beside the WAL. It is deliberately tiny:
// one acknowledged commit-stream position, rewritten (atomically, fsynced)
// at most once per FlushInterval while the acknowledged prefix advances, and
// when a Flush or Close ends — never by Stop. The file may trail
// the in-memory cursor by one interval's acknowledgements, which a restart
// re-sends; the WAL's retention floor reads the file, so compaction never
// folds a position a restart resumes from.
type cursorFile struct {
	Version int    `json:"version"`
	Acked   uint64 `json:"acked_commit_seq"`
}

// loadCursor reads the persisted cursor; a missing file is position zero
// (nothing acknowledged yet), which is the correct cold-start value.
func loadCursor(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var c cursorFile
	if err := json.Unmarshal(data, &c); err != nil {
		return 0, fmt.Errorf("federation: corrupt cursor file %s: %w", path, err)
	}
	return c.Acked, nil
}

// saveCursor persists the cursor atomically through fs (the WAL's, so disk
// faults reach it), so a crash mid-save leaves either the old cursor or the
// new one, never a torn file. A stale (old) cursor is always safe: resuming
// from it re-forwards records the upstream already merged idempotently.
func saveCursor(fs faultinject.FS, path string, acked uint64) error {
	return durable.ReplaceFile(fs, path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(cursorFile{Version: cursorFileVersion, Acked: acked})
	})
}

// ackTracker maintains the contiguous acknowledged prefix of the commit
// stream. Commit-stream positions are dense (the store assigns them from one
// counter), but acknowledgments arrive out of order: the two lanes' POSTs
// complete independently, and positions are assigned under per-shard store
// locks, so a commit can reach the WAL tail after a numerically later one
// (the tail merges the WAL shards by position, so that adds little). The
// tracker therefore advances a low-water mark only through positions actually
// acknowledged, holding the out-of-order remainder in a set; the cursor never
// jumps over a position that might still be unsent.
type ackTracker struct {
	lwm   uint64 // every position <= lwm is acknowledged
	above map[uint64]struct{}
	peak  int // the most positions above ever held at once
}

func newAckTracker(lwm uint64) *ackTracker {
	return &ackTracker{lwm: lwm, above: make(map[uint64]struct{})}
}

// ack records position cseq as acknowledged and reports whether the
// contiguous low-water mark advanced.
func (t *ackTracker) ack(cseq uint64) bool {
	if cseq <= t.lwm {
		return false
	}
	advanced := cseq == t.lwm+1
	if advanced {
		t.lwm++ // the in-order case, which a merged tail makes the common one
	} else {
		t.above[cseq] = struct{}{}
		t.peak = max(t.peak, len(t.above))
	}
	for {
		if _, ok := t.above[t.lwm+1]; !ok {
			break
		}
		delete(t.above, t.lwm+1)
		t.lwm++
		advanced = true
	}
	return advanced
}

// acked reports whether position cseq has been acknowledged.
func (t *ackTracker) acked(cseq uint64) bool {
	if cseq <= t.lwm {
		return true
	}
	_, ok := t.above[cseq]
	return ok
}

// cursor returns the contiguous acknowledged prefix's upper bound.
func (t *ackTracker) cursor() uint64 { return t.lwm }
