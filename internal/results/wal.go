package results

// The durable store tier. Encore's longitudinal views (§7.2) are built over
// weeks of measurements, so the collection server must retain its store
// across restarts; the WAL is the persistence backend behind the in-memory
// sharded Store. It attaches through the commit-observer hook: every
// effective insert and in-place upgrade the store commits — from either
// collectserver write path — is appended to a per-shard segmented log, and
// OpenStoreFromWAL replays the segments into a fresh store whose snapshot
// output is bit-for-bit identical to the store that wrote them. Upgrades
// retract the record they replace, so Compact rewrites each shard down to
// only the latest record per measurement ID. See docs/ARCHITECTURE.md for
// the durability trade-offs of the three fsync policies.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encore/internal/durable"
	"encore/internal/faultinject"
	"encore/internal/wire"
)

// SyncPolicy selects how aggressively the WAL pushes appended records to
// stable storage. The trade-off is the classic one: SyncAlways bounds data
// loss to zero committed records at a large per-append cost; SyncInterval
// bounds loss to one flush interval at near-zero cost; SyncNone leaves
// durability to the operating system's page cache.
type SyncPolicy int

const (
	// SyncInterval (the default) flushes and fsyncs every shard on a
	// background ticker (WALConfig.Interval); a crash loses at most the last
	// interval's worth of commits.
	SyncInterval SyncPolicy = iota
	// SyncAlways flushes and fsyncs after every committed record; a crash
	// loses nothing the store acknowledged, at the cost of one fsync per
	// commit.
	SyncAlways
	// SyncNone never fsyncs (buffers are still flushed to the OS on the
	// background ticker, on rotation, and on Close); a machine crash can lose
	// whatever the kernel had not written back.
	SyncNone
)

// String returns the flag-friendly name of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses a flag-friendly policy name ("always", "interval",
// "none").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return SyncInterval, fmt.Errorf("results: unknown sync policy %q (want always, interval, or none)", s)
}

// WALConfig parameterizes a write-ahead log.
type WALConfig struct {
	// Dir is the directory segment files live in; it is created if missing.
	Dir string
	// SegmentBytes is the size threshold past which a shard rotates to a new
	// segment file (default 16 MiB). Rotation seals and fsyncs the finished
	// segment, so under SyncNone a rotated segment is durable even though
	// individual appends are not.
	SegmentBytes int64
	// Shards is the number of independent segment writers (rounded up to a
	// power of two; < 1 means the default of 8). Records shard by measurement
	// ID with the same hash as the Store, so all records of one measurement
	// land in one shard's log in commit order — the property replay relies
	// on. Because that invariant must also hold across restarts, the shard
	// count of a directory is pinned in a wal-meta.json file on first open;
	// reopening with a different Shards value adopts the pinned count (the
	// on-disk layout wins). Fewer shards than the store's suffice: appends
	// are microseconds, not lock-hold-dominated.
	Shards int
	// Policy is the fsync policy; the zero value is SyncInterval.
	Policy SyncPolicy
	// Interval is the background flush period for SyncInterval and SyncNone
	// (default 200ms).
	Interval time.Duration
	// FS is the filesystem every read and write goes through; nil means the
	// host filesystem. The chaos tier installs a faultinject.FaultFS here to
	// subject the WAL to fsync failures, ENOSPC, short writes, and
	// torn-tail crashes without touching production code paths.
	FS faultinject.FS
}

const (
	defaultWALShards    = 8
	defaultSegmentBytes = 16 << 20
	defaultSyncInterval = 200 * time.Millisecond

	// walVersion is the record-format version; bump when the payload
	// encoding changes. It equals the payload kind byte of the shared wire
	// codec (internal/wire), which owns the record encoding: version 2 added
	// the commit-stream position (the federation forward cursor's coordinate)
	// ahead of the insertion sequence, and version-1 records still decode,
	// with the insertion sequence standing in for the missing position.
	walVersion = int(wire.KindRecord)
	// walFrameHeader is the per-record framing overhead (wire.FrameHeaderLen):
	// a uint32 payload length and a uint32 CRC of the payload.
	walFrameHeader = wire.FrameHeaderLen
)

// walShard is one independent segment writer.
type walShard struct {
	id    int // this shard's index, fixed at OpenWAL
	mu    sync.Mutex
	f     faultinject.File
	w     *bufio.Writer
	size  int64
	next  uint64 // index the next opened segment receives
	dirty bool   // bytes flushed to the file but not yet fsynced
	buf   []byte // scratch encode buffer, reused under mu
	// segs lists the shard's segment indices on disk, oldest first, and gen
	// counts its compactions: what a WALTail needs to find the next file, or
	// learn that its files were replaced, without listing the directory.
	segs []uint64
	gen  atomic.Uint64
}

// WAL is a segmented append-only write-ahead log recording every effective
// store commit. Attach it with Store.AddObserver (it implements
// CommitStreamObserver, so the store hands it the insertion sequence number
// each record needs for order-preserving replay and the commit-stream position
// the forward cursor counts in); recover with OpenStoreFromWAL.
// All methods are safe for concurrent use. Append errors are sticky: the
// first I/O failure stops further appends and is reported by Err, so a
// collector can surface a broken disk instead of silently logging nothing.
type WAL struct {
	cfg  WALConfig
	fs   faultinject.FS
	mask uint32

	shards []walShard

	records   atomic.Uint64
	bytes     atomic.Uint64
	fsyncs    atomic.Uint64
	rotations atomic.Uint64
	compacts  atomic.Uint64

	failed   atomic.Bool
	errMu    sync.Mutex
	firstErr error

	closed    atomic.Bool
	closeOnce sync.Once
	stopFlush chan struct{}
	flushDone chan struct{}

	// retention, when set, provides the compaction floor: the forward
	// cursor's commit-stream position. See SetRetention.
	retention atomic.Value // func() uint64
}

// OpenWAL opens (creating the directory if needed) a write-ahead log for
// appending. Existing segments are left untouched: each shard continues
// numbering after the highest segment already on disk, so reopening after a
// crash or restart never overwrites a sealed segment. Stray temporary files
// from an interrupted compaction are removed.
func OpenWAL(cfg WALConfig) (*WAL, error) {
	if cfg.Dir == "" {
		return nil, errors.New("results: WALConfig.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = defaultSegmentBytes
	}
	if cfg.Shards < 1 {
		cfg.Shards = defaultWALShards
	}
	if cfg.Interval <= 0 {
		cfg.Interval = defaultSyncInterval
	}
	if cfg.FS == nil {
		cfg.FS = faultinject.OS()
	}
	fs := cfg.FS
	size := 1
	for size < cfg.Shards {
		size <<= 1
	}
	if err := fs.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: creating WAL dir: %w", err)
	}
	if tmps, err := fs.Glob(filepath.Join(cfg.Dir, "*.seg.tmp")); err == nil {
		for _, t := range tmps {
			_ = fs.Remove(t)
		}
	}
	size, err := pinShardCount(fs, cfg.Dir, size)
	if err != nil {
		return nil, err
	}
	cfg.Shards = size
	w := &WAL{
		cfg:       cfg,
		fs:        fs,
		mask:      uint32(size - 1),
		shards:    make([]walShard, size),
		stopFlush: make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	for i := range w.shards {
		w.shards[i].id = i
	}
	segs, err := walSegments(fs, cfg.Dir)
	if err != nil {
		return nil, err
	}
	for shard, files := range segs {
		if int(shard) < len(w.shards) && len(files) > 0 {
			sh := &w.shards[shard]
			sh.next = files[len(files)-1].index + 1
			for _, f := range files {
				sh.segs = append(sh.segs, f.index)
			}
		}
	}
	if cfg.Policy == SyncAlways {
		close(w.flushDone) // no background flusher to wait for
	} else {
		go w.flushLoop()
	}
	return w, nil
}

// Dir returns the directory the WAL writes to.
func (w *WAL) Dir() string { return w.cfg.Dir }

// Config returns the WAL's effective configuration.
func (w *WAL) Config() WALConfig { return w.cfg }

// segmentName returns the file name of segment index for shard.
func segmentName(shard int, index uint64) string {
	return fmt.Sprintf("wal-%03d-%08d.seg", shard, index)
}

// walMetaName pins a WAL directory's shard layout. Records shard by
// measurement-ID hash, so the same ID must keep landing in the same shard
// log across restarts — otherwise an upgrade could end up in a different
// shard than its insert and parallel replay would apply the two in arbitrary
// order.
const walMetaName = "wal-meta.json"

// walMeta is the persisted directory metadata.
type walMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// pinShardCount returns the directory's pinned shard count, writing the
// requested count (atomically) on first open. A pinned count always wins
// over the requested one: the on-disk layout is authoritative.
func pinShardCount(fs faultinject.FS, dir string, requested int) (int, error) {
	metaPath := filepath.Join(dir, walMetaName)
	if data, err := fs.ReadFile(metaPath); err == nil {
		var meta walMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return 0, fmt.Errorf("results: corrupt %s: %w", walMetaName, err)
		}
		if meta.Shards < 1 || meta.Shards&(meta.Shards-1) != 0 {
			return 0, fmt.Errorf("results: %s pins invalid shard count %d", walMetaName, meta.Shards)
		}
		return meta.Shards, nil
	} else if !os.IsNotExist(err) {
		return 0, err
	}
	// A crash must leave either no meta or a whole one, never a
	// renamed-but-empty file that refuses every later boot.
	return requested, durable.ReplaceFile(fs, metaPath, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(walMeta{Version: walVersion, Shards: requested})
	})
}

// walSegFile is one discovered segment file.
type walSegFile struct {
	path  string
	index uint64
}

// walSegments scans dir for segment files, grouped by shard and sorted by
// index.
func walSegments(fs faultinject.FS, dir string) (map[int][]walSegFile, error) {
	paths, err := fs.Glob(filepath.Join(dir, "wal-*-*.seg"))
	if err != nil {
		return nil, err
	}
	out := make(map[int][]walSegFile)
	for _, p := range paths {
		var shard int
		var index uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%03d-%08d.seg", &shard, &index); err != nil {
			continue // not ours
		}
		out[shard] = append(out[shard], walSegFile{path: p, index: index})
	}
	for shard := range out {
		files := out[shard]
		sort.Slice(files, func(i, j int) bool { return files[i].index < files[j].index })
		out[shard] = files
	}
	return out, nil
}

// Commit implements CommitObserver for interface completeness only. The
// store always dispatches the position-aware CommitStream to observers
// implementing CommitStreamObserver; a WAL fed through the sequence-less path
// could not reconstruct snapshot order, so this panics rather than corrupt
// the log silently.
func (w *WAL) Commit(prev *Measurement, cur Measurement) {
	panic("results: WAL must be attached via Store.AddObserver, which dispatches CommitStream")
}

// CommitStream implements CommitStreamObserver: it appends the committed
// record — tagged with both its commit-stream position (the federation
// forward cursor's coordinate) and its insertion sequence (its snapshot
// position) — to the shard log of its measurement ID. Called by the store
// under the shard lock that serialized the commit, so records of one
// measurement are appended in commit order. The replaced record (prev) is
// not logged — replaying commits in order reproduces every upgrade — and
// append failures are recorded (Err) rather than propagated, because the
// commit has already happened.
func (w *WAL) CommitStream(commitSeq, seq uint64, prev *Measurement, cur Measurement) {
	if w.closed.Load() || w.failed.Load() {
		return
	}
	sh := &w.shards[ShardHash(cur.MeasurementID)&w.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w.closed.Load() {
		return
	}
	// Encode the payload after an 8-byte hole for the frame header, so
	// header + payload go to the buffered writer as one Write.
	if cap(sh.buf) < walFrameHeader {
		sh.buf = make([]byte, walFrameHeader, 256)
	}
	frame, err := wire.AppendRecord(sh.buf[:walFrameHeader], commitSeq, seq, (*wire.Record)(&cur))
	if err != nil {
		w.fail(err)
		return
	}
	sh.buf = frame // keep the grown buffer
	if err := w.writeFrameLocked(sh, frame); err != nil {
		w.fail(err)
	}
}

// writeFrameLocked fills in the frame header (whose walFrameHeader bytes the
// caller reserved at the front of frame) and writes the frame to the shard's
// current segment, rotating first when the segment is full; sh.mu held. The
// framing itself (wire.FillFrameHeader) is the shared wire format, so a
// segment file is a valid application/x-encore-records stream as-is.
func (w *WAL) writeFrameLocked(sh *walShard, frame []byte) error {
	wire.FillFrameHeader(frame)
	frameLen := int64(len(frame))
	if sh.f != nil && sh.size > 0 && sh.size+frameLen > w.cfg.SegmentBytes {
		if err := w.rotateLocked(sh); err != nil {
			return err
		}
	}
	if sh.f == nil {
		if err := w.openSegmentLocked(sh); err != nil {
			return err
		}
	}
	if _, err := sh.w.Write(frame); err != nil {
		return err
	}
	sh.size += frameLen
	sh.dirty = true
	w.records.Add(1)
	w.bytes.Add(uint64(frameLen))
	if w.cfg.Policy == SyncAlways {
		if err := sh.w.Flush(); err != nil {
			return err
		}
		if err := sh.f.Sync(); err != nil {
			return err
		}
		sh.dirty = false
		w.fsyncs.Add(1)
	}
	return nil
}

// openSegmentLocked opens the shard's next segment file; sh.mu held.
// Segments are opened lazily on first append so untouched shards create no
// files.
func (w *WAL) openSegmentLocked(sh *walShard) error {
	name := filepath.Join(w.cfg.Dir, segmentName(sh.id, sh.next))
	f, err := w.fs.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("results: opening WAL segment: %w", err)
	}
	sh.f = f
	if sh.w == nil {
		sh.w = bufio.NewWriterSize(f, 1<<16)
	} else {
		sh.w.Reset(f)
	}
	sh.size = 0
	sh.dirty = false
	sh.segs = append(sh.segs, sh.next)
	sh.next++
	return nil
}

// rotateLocked seals the current segment (flush + fsync + close); the next
// append opens a fresh one. sh.mu held.
func (w *WAL) rotateLocked(sh *walShard) error {
	if sh.f == nil {
		return nil
	}
	if err := sh.w.Flush(); err != nil {
		return err
	}
	if err := sh.f.Sync(); err != nil {
		return err
	}
	if err := sh.f.Close(); err != nil {
		return err
	}
	sh.f = nil
	sh.dirty = false
	w.fsyncs.Add(1)
	w.rotations.Add(1)
	return nil
}

// fail records the WAL's first error and stops further appends.
func (w *WAL) fail(err error) {
	w.errMu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.errMu.Unlock()
	w.failed.Store(true)
}

// Err returns the first append/flush error the WAL hit, if any. Once an
// error is recorded the WAL stops appending; operators should treat it as a
// failed disk, not a transient.
func (w *WAL) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.firstErr
}

// flushLoop is the SyncInterval/SyncNone background flusher.
func (w *WAL) flushLoop() {
	defer close(w.flushDone)
	ticker := time.NewTicker(w.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopFlush:
			return
		case <-ticker.C:
			w.flushAll(w.cfg.Policy == SyncInterval)
		}
	}
}

// flushAll flushes every shard's buffer to its file, fsyncing dirty shards
// when sync is set.
func (w *WAL) flushAll(sync bool) {
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		if sh.f != nil {
			if err := sh.w.Flush(); err != nil {
				w.fail(err)
			} else if sync && sh.dirty {
				if err := sh.f.Sync(); err != nil {
					w.fail(err)
				} else {
					sh.dirty = false
					w.fsyncs.Add(1)
				}
			}
		}
		sh.mu.Unlock()
	}
}

// Sync flushes and fsyncs every shard. A serving node calls it at shutdown
// and on its maintenance tick so everything the store acknowledged is on
// stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.flushAll(true)
	return w.Err()
}

// Flush pushes every shard's buffered appends to its segment file without
// forcing them to stable storage, so a reader of the files observes every
// commit the store has acknowledged (a WALTail pass does the same per shard);
// it is much cheaper than Sync on the SyncInterval/SyncNone policies.
func (w *WAL) Flush() error {
	w.flushAll(false)
	return w.Err()
}

// Close stops the background flusher, flushes and fsyncs every shard, and
// closes the segment files. Appends after Close are dropped. Close is
// idempotent; it returns the WAL's sticky error, if any.
func (w *WAL) Close() error {
	w.closeOnce.Do(func() {
		w.closed.Store(true)
		if w.cfg.Policy != SyncAlways {
			close(w.stopFlush)
			<-w.flushDone
		}
		w.flushAll(true)
		for i := range w.shards {
			sh := &w.shards[i]
			sh.mu.Lock()
			if sh.f != nil {
				if err := sh.f.Close(); err != nil {
					w.fail(err)
				}
				sh.f = nil
			}
			sh.mu.Unlock()
		}
	})
	return w.Err()
}

// WALStats is a point-in-time snapshot of the WAL's lifetime counters.
type WALStats struct {
	// Records and Bytes count framed records appended (Bytes includes
	// framing).
	Records uint64
	Bytes   uint64
	// Fsyncs counts fsync calls (per-record under SyncAlways, per dirty
	// interval under SyncInterval, rotations and Sync/Close always).
	Fsyncs uint64
	// Rotations counts sealed segments; Compactions counts Compact passes.
	Rotations   uint64
	Compactions uint64
	// Segments is the number of segment files currently on disk.
	Segments int
}

// Stats returns the WAL's lifetime counters and current on-disk segment
// count.
func (w *WAL) Stats() WALStats {
	st := WALStats{
		Records:     w.records.Load(),
		Bytes:       w.bytes.Load(),
		Fsyncs:      w.fsyncs.Load(),
		Rotations:   w.rotations.Load(),
		Compactions: w.compacts.Load(),
	}
	if segs, err := walSegments(w.fs, w.cfg.Dir); err == nil {
		for _, files := range segs {
			st.Segments += len(files)
		}
	}
	return st
}

// SetRetention installs the compaction floor provider: a function returning
// the federation forward cursor's commit-stream position (the highest
// position the upstream has acknowledged). While set, Compact folds only
// records at or below that position; records above it — commits a forwarder
// still has to ship — are carried into the compacted segment verbatim, in
// file order, even when a newer record of the same measurement supersedes
// them. Without the guarantee, compaction could drop an unacked commit and
// the contiguous forward cursor would stall on the gap forever. A nil fn
// removes the floor.
func (w *WAL) SetRetention(fn func() uint64) {
	w.retention.Store(retentionFn{fn})
}

// retentionFn wraps the provider so atomic.Value sees one concrete type even
// when the function is nil.
type retentionFn struct{ fn func() uint64 }

// retainAfter returns the current compaction floor: positions strictly above
// it must survive compaction un-folded. Without a provider everything may
// fold.
func (w *WAL) retainAfter() uint64 {
	if v, ok := w.retention.Load().(retentionFn); ok && v.fn != nil {
		return v.fn()
	}
	return ^uint64(0)
}

// Compact rewrites each shard's log down to the latest record per
// measurement ID: upgrades retract the records they replaced, so a
// long-running collector's log stays proportional to its live store rather
// than its commit history. Per shard it seals the active segment, folds every
// segment oldest-to-newest (later records of an ID supersede earlier ones),
// writes the survivors — ordered by insertion sequence — to a temporary file,
// fsyncs it, atomically renames it over the newest segment, and only then
// deletes the older segments. Records past the SetRetention floor are not
// folded; they ride along verbatim so a resuming forwarder can still read
// them. A crash at any point leaves a replayable log:
// before the rename the original segments are untouched; after it, replaying
// leftover older segments before the compacted one converges to the same
// store because replay applies records of an ID in order. Appends to a shard
// block while that shard compacts.
//
// A failed compaction is returned but is not sticky: the uncompacted log on
// disk remains valid and appendable, so a transient rewrite failure (disk
// briefly full, one unreadable old segment) must not stop the WAL from
// recording further commits. Only a failure while sealing the active segment
// — a flush/fsync error on data the store already acknowledged — poisons the
// append path, as any append-side error does.
func (w *WAL) Compact() error {
	for i := range w.shards {
		if err := w.compactShard(i); err != nil {
			return err
		}
	}
	w.compacts.Add(1)
	return nil
}

// compactShard compacts one shard; see Compact.
func (w *WAL) compactShard(shard int) error {
	sh := &w.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := w.rotateLocked(sh); err != nil {
		w.fail(err) // sealing failure = acknowledged data not durable
		return err
	}
	segs, err := walSegments(w.fs, w.cfg.Dir)
	if err != nil {
		return err
	}
	files := segs[shard]
	if len(files) == 0 {
		return nil
	}
	// Fold only the acked prefix of the commit stream. Records past the
	// retention floor are commits a forwarder has not shipped yet; they are
	// retained verbatim in file order so a later tail read still sees every
	// unacked commit-stream position, even one a folded record would have
	// superseded.
	retain := w.retainAfter()
	type liveRec struct {
		cseq, seq uint64
		m         Measurement
	}
	live := make(map[string]liveRec)
	var unacked []liveRec
	for _, f := range files {
		_, _, err := readWALSegment(w.fs, f.path, func(cseq, seq uint64, v *wire.RecordView) error {
			m := Measurement(v.Record())
			if cseq > retain {
				unacked = append(unacked, liveRec{cseq: cseq, seq: seq, m: m})
				return nil
			}
			live[m.MeasurementID] = liveRec{cseq: cseq, seq: seq, m: m}
			return nil
		})
		if err != nil {
			return err
		}
	}
	recs := make([]liveRec, 0, len(live)+len(unacked))
	for _, r := range live {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	// Unacked records follow the folded prefix. Commit-stream positions of
	// one measurement increase in commit order, so any folded record of the
	// same ID is older and replay still applies the pair in order.
	recs = append(recs, unacked...)

	last := files[len(files)-1]
	tmpPath := last.path + ".tmp"
	tmp, err := w.fs.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(tmp, 1<<16)
	scratch := make([]byte, walFrameHeader, 256)
	for _, r := range recs {
		frame, err := wire.AppendRecord(scratch[:walFrameHeader], r.cseq, r.seq, (*wire.Record)(&r.m))
		if err != nil {
			tmp.Close()
			return err
		}
		scratch = frame
		wire.FillFrameHeader(frame)
		if _, err := bw.Write(frame); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	sh.gen.Add(1) // first: a tail opening last.path after the rename must see it
	if err := w.fs.Rename(tmpPath, last.path); err != nil {
		return err
	}
	sh.segs = append(sh.segs[:0], last.index)
	// Make the rename durable before unlinking the older segments: if the
	// removes reached disk first and the machine died, the directory would
	// hold neither the old records nor the compacted file that replaces
	// them. Best effort: some platforms disallow fsync on a directory.
	_ = durable.SyncDir(w.fs, w.cfg.Dir)
	for _, f := range files[:len(files)-1] {
		if err := w.fs.Remove(f.path); err != nil {
			return err
		}
	}
	_ = durable.SyncDir(w.fs, w.cfg.Dir)
	sh.next = last.index + 1
	return nil
}

// WALRecoveryStats reports what OpenStoreFromWAL found.
type WALRecoveryStats struct {
	// Segments is the number of segment files replayed; Records the framed
	// records applied.
	Segments int
	Records  int
	// TornSegments counts segments whose tail held a truncated or
	// CRC-corrupted frame — the expected artifact of a crash mid-append. The
	// torn tail is dropped; everything before it is recovered.
	TornSegments int
	// MaxSeq is the highest insertion sequence number recovered; the rebuilt
	// store continues numbering after it.
	MaxSeq uint64
	// MaxCommitSeq is the highest commit-stream position recovered; the
	// rebuilt store continues its commit counter after it, so positions a
	// forwarder's cursor already acknowledged are never reissued to new
	// commits (which would make them invisible to a resumed tail read).
	MaxCommitSeq uint64
}

// OpenStoreFromWAL replays every WAL segment under dir into a fresh store.
// Records of one measurement ID all live in one WAL shard in commit order, so
// shards replay in parallel (one goroutine each) while each shard's segments
// replay sequentially oldest-to-newest; insertion sequence numbers persisted
// with each record put every measurement back at its original snapshot
// position, so All/Filter/WriteJSONL on the recovered store are bit-for-bit
// identical to the store that wrote the log. A missing or empty directory
// recovers an empty store. node.Open is a collector's whole start-up around
// it: recovery, Aggregator.Backfill, then the observers.
func OpenStoreFromWAL(dir string) (*Store, WALRecoveryStats, error) {
	return OpenStoreFromWALFS(dir, faultinject.OS())
}

// OpenStoreFromWALFS is OpenStoreFromWAL reading through an explicit
// filesystem; chaos tests use it to replay logs written (and crash-mangled)
// by a faultinject.FaultFS.
func OpenStoreFromWALFS(dir string, fs faultinject.FS) (*Store, WALRecoveryStats, error) {
	if fs == nil {
		fs = faultinject.OS()
	}
	store := NewStore()
	var stats WALRecoveryStats
	segs, err := walSegments(fs, dir)
	if err != nil {
		return nil, stats, err
	}
	if len(segs) == 0 {
		return store, stats, nil
	}
	type shardResult struct {
		segments, records, torn int
		maxSeq, maxCommitSeq    uint64
		err                     error
	}
	shardIDs := make([]int, 0, len(segs))
	for shard := range segs {
		shardIDs = append(shardIDs, shard)
	}
	results := make([]shardResult, len(shardIDs))
	var wg sync.WaitGroup
	for i, shard := range shardIDs {
		wg.Add(1)
		go func(i, shard int) {
			defer wg.Done()
			res := &results[i]
			for _, f := range segs[shard] {
				n, torn, err := readWALSegment(fs, f.path, func(cseq, seq uint64, v *wire.RecordView) error {
					if err := store.replay(seq, v); err != nil {
						return err
					}
					if seq > res.maxSeq {
						res.maxSeq = seq
					}
					if cseq > res.maxCommitSeq {
						res.maxCommitSeq = cseq
					}
					return nil
				})
				res.segments++
				res.records += n
				if torn {
					res.torn++
				}
				if err != nil {
					res.err = err
					return
				}
			}
		}(i, shard)
	}
	wg.Wait()
	for _, res := range results {
		if res.err != nil {
			return nil, stats, res.err
		}
		stats.Segments += res.segments
		stats.Records += res.records
		stats.TornSegments += res.torn
		if res.maxSeq > stats.MaxSeq {
			stats.MaxSeq = res.maxSeq
		}
		if res.maxCommitSeq > stats.MaxCommitSeq {
			stats.MaxCommitSeq = res.maxCommitSeq
		}
	}
	// Continue insertion and commit-stream numbering after the recovered
	// records.
	if cur := store.seq.Load(); stats.MaxSeq > cur {
		store.seq.Store(stats.MaxSeq)
	}
	if cur := store.commits.Load(); stats.MaxCommitSeq > cur {
		store.commits.Store(stats.MaxCommitSeq)
	}
	return store, stats, nil
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

// ReadRecordFrames streams every raw validated frame (header + payload,
// byte-for-byte as the WAL stores it — the disk encoding IS the wire encoding)
// with a commit-stream position strictly greater than after to fn, without
// decoding: one pass of a fresh WALTail, which reads every segment from its
// start. See WALTail.Read for what a pass observes, the order across shards
// (near, not exactly, commit order) and the lifetime of the frame slice.
func (w *WAL) ReadRecordFrames(after uint64, fn func(commitSeq uint64, frame []byte) error) error {
	return w.Tail().Read(func(cseq uint64) bool { return cseq <= after }, fn)
}

// readWALSegment streams the framed records of one segment to fn in file
// order, each as a view valid only during the call. A truncated or
// CRC-corrupted frame is treated as a torn tail (the crash artifact fsync
// policies other than SyncAlways permit): reading stops
// there and torn is reported true. A record that passes its CRC but fails to
// decode is a real format error and is returned as err, as is any error fn
// returns (which also aborts the walk).
func readWALSegment(fs faultinject.FS, path string, fn func(commitSeq, seq uint64, v *wire.RecordView) error) (records int, torn bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	fr := wire.GetFrameReader(f)
	defer wire.PutFrameReader(fr)
	var v wire.RecordView // one for the segment: fn's argument escapes
	for {
		payload, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return records, false, nil
		}
		if wire.Torn(err) {
			return records, true, nil
		}
		if err != nil {
			return records, false, err
		}
		var cseq, seq uint64
		if cseq, seq, v, err = wire.DecodeRecordView(payload); err != nil {
			return records, false, fmt.Errorf("results: %s: %w", filepath.Base(path), err)
		}
		if err := fn(cseq, seq, &v); err != nil {
			return records, false, err
		}
		records++
	}
}

var _ CommitStreamObserver = (*WAL)(nil)
