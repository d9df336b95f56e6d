package results

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"encore/internal/faultinject"
	"encore/internal/wire"
)

// WALTail reads a WAL's commit stream incrementally, as a federation
// forwarder reads the log as a queue: a pass costs what was appended since the
// previous one, not the age of the log (the slowest stage of a pipeline must
// do no work that grows with anything but its input — "A Multiprocessor
// Communication Architecture for High Speed Networks", PAPERS.md). It keeps a
// (segment, offset) position per shard, so each Read resumes where the last
// stopped; it learns of rotation from the shard's own segment list, not the
// directory; and it yields the shards merged by commit-stream position, so a
// consumer tracking a contiguous acknowledged prefix sees near-commit order
// (off by the commits in flight). Only compaction replaces bytes under a
// position: the tail then re-reads that shard from its first segment and the
// caller's skip predicate drops what was already consumed. A fresh tail
// starts every shard that way. Not safe for concurrent use.
type WALTail struct {
	w      *WAL
	shards []tailShard
	next   []uint64 // each shard's head position (noFrame: none); the merge scans it
	cur    int      // shard of the frame being handed to fn
}

const noFrame = ^uint64(0)

// tailShard is one shard's position and, during a pass, its open reader.
type tailShard struct {
	gen  uint64   // compaction generation the position belongs to
	seg  uint64   // index of the segment being read, or the lowest acceptable next one
	off  int64    // bytes of seg handed out so far; always a frame boundary
	segs []uint64 // this pass's snapshot of the shard's segment list
	f    faultinject.File
	fr   *wire.FrameReader
	head []byte // next frame of this shard; its position is in WALTail.next
}

// Tail returns a tail positioned before the oldest record on disk.
func (w *WAL) Tail() *WALTail {
	return &WALTail{w: w, shards: make([]tailShard, len(w.shards)), next: make([]uint64, len(w.shards))}
}

// Read runs one pass: every frame appended since the previous pass, except
// those skip reports already consumed, goes to fn with its commit-stream
// position, lowest position first across shards. Buffered appends are flushed
// first, so the pass observes everything the store had acknowledged when it
// started; later commits it may see or leave to the next pass. A frame handed
// to fn is consumed whether or not fn fails; fn's error aborts the pass and is
// returned. The frame slice is valid only during the call.
func (t *WALTail) Read(skip func(commitSeq uint64) bool, fn func(commitSeq uint64, frame []byte) error) error {
	defer func() { // positions stay; open segments do not
		for i := range t.shards {
			t.shards[i].close()
		}
	}()
	// Fix which segments this pass reads of each shard, flushing its buffered
	// appends to the newest first. A compaction since the position was taken
	// sends the shard back to its first segment.
	for i := range t.shards {
		sh, ts := &t.w.shards[i], &t.shards[i]
		sh.mu.Lock()
		if sh.f != nil {
			if err := sh.w.Flush(); err != nil {
				t.w.fail(err)
			}
		}
		ts.segs = append(ts.segs[:0], sh.segs...)
		gen := sh.gen.Load()
		sh.mu.Unlock()
		if gen != ts.gen {
			ts.gen, ts.seg, ts.off = gen, 0, 0
		}
	}
	if err := t.w.Err(); err != nil {
		return err
	}
	for i := range t.shards {
		if err := t.advance(i); err != nil {
			return err
		}
	}
	for {
		best, cseq := 0, noFrame
		for i, c := range t.next {
			if c < cseq {
				best, cseq = i, c
			}
		}
		if cseq == noFrame {
			return nil
		}
		ts := &t.shards[best]
		t.cur = best
		ts.off += int64(len(ts.head))
		if !skip(cseq) {
			if err := fn(cseq, ts.head); err != nil {
				return err
			}
		}
		if err := t.advance(best); err != nil {
			return err
		}
	}
}

// Shard returns the WAL shard of the frame Read is handing to fn. A shard is
// picked by the measurement ID's hash, so every record of one ID has the same
// shard.
func (t *WALTail) Shard() int { return t.cur }

// advance loads shard i's next frame into head (nil when the shard has nothing
// more for this pass), moving on when a sealed segment is exhausted.
func (t *WALTail) advance(i int) error {
	ts := &t.shards[i]
	ts.head, t.next[i] = nil, noFrame
	for {
		if ts.fr == nil {
			if opened, err := t.open(i); !opened {
				return err
			}
		}
		frame, err := ts.fr.NextFrame()
		if err == nil {
			cseq, ok := wire.PeekCommitSeq(frame[wire.FrameHeaderLen:])
			if !ok {
				return fmt.Errorf("results: %s: %w", segmentName(i, ts.seg), wire.ErrMalformed)
			}
			ts.head, t.next[i] = frame, cseq
			return nil
		}
		ts.close()
		// A torn frame ends a segment like EOF does: in a sealed one it is
		// what a crash mid-append left, in the newest the front of a frame
		// still being written, which the next pass re-reads whole.
		if !errors.Is(err, io.EOF) && !wire.Torn(err) {
			return err
		}
		if ts.seg == ts.segs[len(ts.segs)-1] {
			return nil // the newest segment: more may be appended; stay
		}
		ts.seg, ts.off = ts.seg+1, 0
	}
}

// open opens the first snapshotted segment of shard i at or after the
// position, at its offset. It reports false when there is none, or when a
// compaction after the snapshot removed the file or put other bytes under its
// name — the next pass re-positions.
func (t *WALTail) open(i int) (bool, error) {
	sh, ts := &t.w.shards[i], &t.shards[i]
	k := sort.Search(len(ts.segs), func(k int) bool { return ts.segs[k] >= ts.seg })
	if k == len(ts.segs) {
		return false, nil
	}
	if ts.segs[k] > ts.seg {
		ts.seg, ts.off = ts.segs[k], 0
	}
	f, err := t.w.fs.Open(filepath.Join(t.w.cfg.Dir, segmentName(i, ts.seg)))
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return false, err
	}
	if _, err = f.Seek(ts.off, io.SeekStart); err != nil || sh.gen.Load() != ts.gen {
		f.Close()
		return false, err
	}
	ts.f, ts.fr = f, wire.GetFrameReader(f)
	return true, nil
}

func (ts *tailShard) close() {
	if ts.fr != nil {
		wire.PutFrameReader(ts.fr)
		ts.f.Close()
		ts.f, ts.fr, ts.head = nil, nil, nil
	}
}
