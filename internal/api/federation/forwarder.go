// Package federation implements Encore's distributed-collectors topology:
// N edge collection servers each ingest their region's beacon traffic
// locally, and a Forwarder on each edge drains the store's commit-observer
// stream into batched POST /v2/submissions calls against one upstream
// aggregation-tier instance. The upstream (a collection server started with
// AllowAttributed) feeds its own store and incremental Aggregator, so the
// merged tier reaches the same DetectIncremental verdicts a single
// collector ingesting all the traffic would — the ROADMAP's
// distributed-collectors open item, built on the v2 API instead of a
// bespoke replication channel.
//
// The forwarder attaches to the edge store exactly like the Aggregator and
// WAL tiers do (results.Store.AddObserver), so every lane of the
// collectserver write path feeds it automatically. With a WAL attached
// (ForwarderConfig.WAL) forwarding is lossless and resumable: the forwarder
// persists the highest contiguously acknowledged commit-stream position in a
// tiny fsynced cursor file beside the WAL (at most once per FlushInterval, so
// a restart re-sends at most that interval's acknowledgements plus a batch),
// falls back to tailing the WAL whenever its in-memory buffer cannot hold an
// outage, and on restart resumes from the cursor — an edge crash or an
// arbitrarily long upstream outage loses nothing. The tail is positioned and
// shard-merged (results.WALTail): a pass costs what is new, and only
// compaction makes it re-read a shard. The forwarder also honors the
// upstream's explicit backpressure (api.LoadSignal and Retry-After), widening
// its flush window when the upstream is loaded instead of hammering it in
// lockstep with every other edge.
package federation

import (
	"context"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"encore/internal/api"
	apiclient "encore/internal/api/client"
	"encore/internal/results"
	"encore/internal/wire"
)

// ErrForwarderClosed is returned by Flush after Close has completed.
var ErrForwarderClosed = errors.New("federation: forwarder closed")

// ForwarderConfig parameterizes a Forwarder. Zero fields fall back to
// defaults.
type ForwarderConfig struct {
	// Upstream is the aggregation-tier base URL (required unless Client is
	// set).
	Upstream string
	// Client overrides the SDK client used for upstream calls; nil builds
	// one from Upstream with default retry configuration.
	Client *apiclient.Client
	// MaxBatch caps measurements per POST (default 128).
	MaxBatch int
	// FlushInterval is how often buffered commits are shipped (default
	// 200ms). The interval, not the batch size, bounds edge-to-upstream
	// latency under light traffic. It is the floor of a dynamic window: the
	// upstream's load signal and send failures widen the effective interval
	// up to MaxFlushInterval, and a healthy unloaded response snaps it back.
	FlushInterval time.Duration
	// MaxFlushInterval caps the widened flush window (default 10× the
	// flush interval).
	MaxFlushInterval time.Duration
	// MaxBuffer bounds the in-memory commit buffer (default 1<<18 records).
	// What happens when an outage fills it depends on WAL: with a WAL
	// attached the buffer spills — the forwarder switches to tailing the
	// WAL, which still has every record past the cursor, so nothing is lost
	// (Stats.Spilled counts the hand-off). Without a WAL the oldest records
	// are dropped — in chunks of MaxBuffer/8, so eviction cost amortizes to
	// O(1) per commit — and counted in Stats.Dropped.
	MaxBuffer int
	// WAL, when set, makes forwarding lossless and resumable: the forwarder
	// tracks its progress as a commit-stream position, persists it in a
	// cursor file beside the WAL (CursorPath), replays the WAL from the
	// cursor on restart, and registers a compaction-retention floor so
	// Compact never folds away a record the upstream has not acknowledged.
	// Attach the WAL to the store before the forwarder, and the forwarder
	// via AddObserver (it implements results.CommitStreamObserver, so the
	// store hands it each commit's stream position).
	WAL *results.WAL
	// CursorPath overrides where the cursor file lives (default
	// forward-cursor.json inside the WAL directory). Ignored without WAL.
	CursorPath string
	// DeadLetterLimit bounds the ring of most recent permanently rejected
	// records kept for inspection via DeadLetters (default 64).
	DeadLetterLimit int
	// Logf receives operational log lines (dead-letter batches, cursor
	// persistence failures); nil uses the standard logger.
	Logf func(format string, args ...any)
}

// DeadLetter is one record the upstream permanently rejected. The forwarder
// acknowledges it (the ordered stream moves on — one poison record must not
// wedge forwarding forever) and parks it here instead of re-queueing it.
type DeadLetter struct {
	Measurement results.Measurement
	Code        string
	Message     string
}

// ForwarderStats reports a forwarder's lifetime counters.
type ForwarderStats struct {
	// Observed counts commits received from the store.
	Observed uint64
	// Forwarded counts records the upstream accepted.
	Forwarded uint64
	// Rejected counts records the upstream refused individually; they are
	// dead-lettered, not re-queued. RejectedByCode breaks them down by typed
	// error code.
	Rejected       uint64
	RejectedByCode map[string]uint64
	// Dropped counts records evicted from a full buffer during an upstream
	// outage with no WAL to fall back on. With a WAL attached it stays zero.
	Dropped uint64
	// Spilled counts records handed off from the in-memory buffer to the
	// WAL-tailing catch-up path when the buffer filled. Unlike Dropped they
	// are not lost — the catch-up pass re-reads them from the WAL.
	Spilled uint64
	// Batches counts successful upstream POSTs.
	Batches uint64
	// Pending counts records buffered but not yet acknowledged upstream.
	Pending int
	// AckedCursor is the highest contiguously acknowledged commit-stream
	// position (zero without a WAL).
	AckedCursor uint64
	// CatchingUp reports whether the forwarder is in WAL-tailing catch-up
	// mode rather than live buffer mode.
	CatchingUp bool
	// FlushInterval is the current (possibly widened) flush window.
	FlushInterval time.Duration
	// LastError is the most recent upstream failure, nil after a success.
	LastError error
}

// entry is one buffered commit: the measurement plus its commit-stream
// position (zero for commits observed without position, e.g. via the plain
// CommitObserver path in WAL-less mode).
type entry struct {
	cseq uint64
	m    results.Measurement
}

// ring is the commit buffer: a circular FIFO, so a batch leaves the head — and
// a failed one returns to it — in O(batch) and nothing moves what stays. It
// grows by doubling and never shrinks; a spill drops it.
type ring struct {
	buf  []entry // len is zero or a power of two
	head int     // index of the oldest entry
	n    int
}

// at returns the slot of the i-th oldest entry.
func (r *ring) at(i int) *entry { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring) grow() {
	buf := make([]entry, max(2*len(r.buf), 64))
	n := copy(buf, r.buf[r.head:]) // slot order is kept, so empty slots may come along
	copy(buf[n:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// push appends an entry and returns its slot for the caller to fill.
func (r *ring) push() *entry {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.n++
	return r.at(r.n - 1)
}

// shift removes the k oldest entries, into out unless it is nil, and clears
// their slots so the ring pins none of their strings.
func (r *ring) shift(k int, out []entry) {
	for i := 0; i < k; i++ {
		if out != nil {
			out[i] = *r.at(i)
		}
		*r.at(i) = entry{}
	}
	r.head, r.n = (r.head+k)&(len(r.buf)-1), r.n-k
}

// unshift puts a batch back at the head, oldest first.
func (r *ring) unshift(batch []entry) {
	for r.n+len(batch) > len(r.buf) {
		r.grow()
	}
	r.head, r.n = (r.head-len(batch))&(len(r.buf)-1), r.n+len(batch)
	for i := range batch {
		*r.at(i) = batch[i]
	}
}

// Forwarder streams an edge collector's committed measurements to an
// upstream aggregation tier. It implements results.CommitStreamObserver
// (and the plain CommitObserver for WAL-less use).
type Forwarder struct {
	client     *apiclient.Client
	cfg        ForwarderConfig
	cursorPath string

	mu      sync.Mutex
	pending ring
	// catchingUp: the buffer overflowed (or the forwarder just started with
	// a WAL behind its cursor) and the WAL tail, not the buffer, is the
	// source of records to ship. While set, positioned commits are not
	// buffered — the WAL already has them and the next tail pass reads them.
	catchingUp bool
	// closing is set at the top of Close (so a concurrent Close cannot
	// close(done) twice); closed only once the final drain finished and
	// commits are refused.
	closing bool
	closed  bool

	// sendMu serializes the send paths (background sender, explicit Flush,
	// catch-up passes), so batches reach the upstream in order and a
	// measurement's insert can never overtake its upgrade. acks is guarded
	// by it: all acknowledgment happens on the send side.
	sendMu sync.Mutex
	acks   *ackTracker
	// tail is the positioned WAL reader catch-up ships from and tb the batch a
	// pass is filling; one whose send failed stays in tb (the tail has moved
	// past its frames) and goes first on the next pass. lastSave and saveFails
	// pace and report cursor saves. All guarded by sendMu.
	tail      *results.WALTail
	tb        tailBatch
	lastSave  time.Time
	saveFails int

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	// observed/dropped/spilled are bumped from the commit path, which runs
	// under the store shard lock on the ingest hot path — atomics, so a
	// commit never takes a second mutex there. ackedCursor mirrors
	// acks.cursor() for lock-free reads (Stats); savedCursor is what the
	// cursor file holds — at most one FlushInterval of acknowledgements
	// behind — and what the WAL retention floor reads. interval is the
	// current flush window in nanoseconds.
	observed    atomic.Uint64
	dropped     atomic.Uint64
	spilled     atomic.Uint64
	ackedCursor atomic.Uint64
	savedCursor atomic.Uint64
	interval    atomic.Int64

	statsMu        sync.Mutex
	forwarded      uint64
	rejected       uint64
	batches        uint64
	rejectedByCode map[string]uint64
	deadLetters    []DeadLetter
	lastErr        error
}

// NewForwarder creates a running forwarder. With cfg.WAL set it loads the
// persisted cursor and starts in catch-up mode, immediately replaying any
// records a previous run committed but never got acknowledged.
func NewForwarder(cfg ForwarderConfig) (*Forwarder, error) {
	if cfg.Client == nil {
		if cfg.Upstream == "" {
			return nil, errors.New("federation: ForwarderConfig needs Upstream or Client")
		}
		cfg.Client = apiclient.New(cfg.Upstream)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 128
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 200 * time.Millisecond
	}
	if cfg.MaxFlushInterval <= 0 {
		cfg.MaxFlushInterval = 10 * cfg.FlushInterval
	}
	if cfg.MaxFlushInterval < cfg.FlushInterval {
		cfg.MaxFlushInterval = cfg.FlushInterval
	}
	if cfg.MaxBuffer <= 0 {
		cfg.MaxBuffer = 1 << 18
	}
	if cfg.DeadLetterLimit <= 0 {
		cfg.DeadLetterLimit = 64
	}
	f := &Forwarder{
		client: cfg.Client,
		cfg:    cfg,
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	f.interval.Store(int64(cfg.FlushInterval))
	cursor := uint64(0)
	if cfg.WAL != nil {
		f.cursorPath = cfg.CursorPath
		if f.cursorPath == "" {
			f.cursorPath = filepath.Join(cfg.WAL.Dir(), "forward-cursor.json")
		}
		var err error
		cursor, err = loadCursor(f.cursorPath)
		if err != nil {
			return nil, err
		}
		f.tail = cfg.WAL.Tail()
		// Catch up from the cursor before going live: a previous run may
		// have committed records it never shipped. An empty WAL makes this a
		// no-op pass.
		f.catchingUp = true
		f.kick <- struct{}{}
	}
	f.acks = newAckTracker(cursor)
	f.ackedCursor.Store(cursor)
	f.savedCursor.Store(cursor)
	if cfg.WAL != nil {
		// Compaction must not fold away a record a restart would resume
		// from, and a restart resumes from the file: the floor follows the
		// persisted cursor, not the in-memory one ahead of it.
		cfg.WAL.SetRetention(f.savedCursor.Load)
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Commit implements the plain results.CommitObserver: the WAL-less path,
// where commits carry no stream position and durability is best-effort
// (Stats.Dropped counts outage losses). A store dispatches CommitStream
// instead when the forwarder is attached via AddObserver.
func (f *Forwarder) Commit(_ *results.Measurement, cur results.Measurement) {
	f.enqueue(0, cur)
}

// CommitStream implements results.CommitStreamObserver: it records the
// committed measurement, tagged with its commit-stream position, for
// forwarding. It runs under the store shard lock that serialized the commit,
// so it only appends to the buffer — never blocks, never performs I/O.
// In-place upgrades forward the upgraded record; the upstream store applies
// the same terminal-state-wins merge rule the edge applied, so replaying
// both the insert and the upgrade — or re-forwarding either after a crash —
// converges to the edge's final state regardless of batch boundaries.
func (f *Forwarder) CommitStream(commitSeq, _ uint64, _ *results.Measurement, cur results.Measurement) {
	f.enqueue(commitSeq, cur)
}

// enqueue buffers one commit (or, in catch-up mode with a WAL holding the
// record, deliberately doesn't).
func (f *Forwarder) enqueue(cseq uint64, cur results.Measurement) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	if f.catchingUp && cseq != 0 {
		// The WAL has this record past the cursor; the tail pass ships it.
		f.mu.Unlock()
		f.observed.Add(1)
		return
	}
	var dropped, spilled int
	if f.pending.n >= f.cfg.MaxBuffer {
		if f.cfg.WAL != nil && cseq != 0 {
			// Spill to the WAL tail: every positioned record in the buffer
			// (and this one) is already durable past the cursor, so hand the
			// whole backlog — and the buffer's memory; catch-up may last long
			// — to catch-up mode instead of dropping anything.
			var kept ring
			for i := 0; i < f.pending.n; i++ {
				if e := f.pending.at(i); e.cseq == 0 {
					*kept.push() = *e // not WAL-backed; must stay
				} else {
					spilled++
				}
			}
			f.pending = kept
			f.catchingUp = true
			f.mu.Unlock()
			f.observed.Add(1)
			f.spilled.Add(uint64(spilled + 1)) // +1: the record being committed
			select {
			case f.kick <- struct{}{}:
			default:
			}
			return
		}
		// No WAL to fall back on: evict the oldest records rather than
		// stall the ingest path, a chunk at a time.
		dropped = min(max(f.cfg.MaxBuffer/8, 1), f.pending.n)
		f.pending.shift(dropped, nil)
	}
	*f.pending.push() = entry{cseq: cseq, m: cur}
	full := f.pending.n >= f.cfg.MaxBatch
	f.mu.Unlock()

	f.observed.Add(1)
	if dropped > 0 {
		f.dropped.Add(uint64(dropped))
	}

	if full {
		select {
		case f.kick <- struct{}{}:
		default:
		}
	}
}

// curInterval returns the current (possibly widened) flush window.
func (f *Forwarder) curInterval() time.Duration {
	return time.Duration(f.interval.Load())
}

// noteLoad resets the flush window after a successful batch: back to the
// configured floor, or up to the upstream's suggested interval when its load
// signal asks the edge to slow down.
func (f *Forwarder) noteLoad(load *api.LoadSignal) {
	next := f.cfg.FlushInterval
	if load != nil && load.SuggestedFlushMillis > 0 {
		if s := time.Duration(load.SuggestedFlushMillis) * time.Millisecond; s > next {
			next = s
		}
	}
	if next > f.cfg.MaxFlushInterval {
		next = f.cfg.MaxFlushInterval
	}
	f.interval.Store(int64(next))
}

// widenInterval doubles the flush window after a failed send, up to the cap
// — the edge-side half of riding out an upstream outage without a retry
// storm (the SDK's per-request jittered backoff is the other half).
func (f *Forwarder) widenInterval() {
	next := 2 * f.curInterval()
	if next > f.cfg.MaxFlushInterval {
		next = f.cfg.MaxFlushInterval
	}
	f.interval.Store(int64(next))
}

// run ships batches on size kicks and the flush timer until Close. The
// timer re-arms with the current dynamic window, so upstream load advice and
// failure backoff take effect on the next cycle.
func (f *Forwarder) run() {
	defer f.wg.Done()
	timer := time.NewTimer(f.curInterval())
	defer timer.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-f.kick:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
		_ = f.step(context.Background())
		timer.Reset(f.curInterval())
	}
}

// step performs one unit of forwarding work: a catch-up round when tailing
// the WAL, one batch flush otherwise. Failures widen the flush window.
func (f *Forwarder) step(ctx context.Context) error {
	f.mu.Lock()
	cu := f.catchingUp
	f.mu.Unlock()
	var err error
	if cu {
		err = f.catchUp(ctx)
	} else {
		err = f.flushOnce(ctx)
	}
	if err != nil {
		f.widenInterval()
	}
	return err
}

// sendBatch ships one batch of decoded entries upstream. Callers hold sendMu.
func (f *Forwarder) sendBatch(ctx context.Context, batch []entry) error {
	ms := make([]results.Measurement, len(batch))
	for i, e := range batch {
		ms[i] = e.m
	}
	resp, err := f.client.ForwardMeasurements(ctx, ms)
	return f.settle(resp, err, len(batch),
		func(i int) results.Measurement { return batch[i].m }, func(i int) uint64 { return batch[i].cseq })
}

// settle folds in the outcome of one POST of n records. A failure is recorded
// and returned. A success acknowledges every record — including per-index
// rejections, which are dead-lettered (counted, logged once per batch, kept in
// a bounded ring) rather than re-queued, so one poison record cannot wedge
// the ordered stream.
func (f *Forwarder) settle(resp *api.BatchSubmitResponse, err error, n int, mAt func(int) results.Measurement, cseqAt func(int) uint64) error {
	if err != nil {
		f.statsMu.Lock()
		f.lastErr = err
		f.statsMu.Unlock()
		return err
	}
	f.recordBatchOutcome(resp, n, mAt)
	f.ackBatch(n, cseqAt)
	f.noteLoad(resp.Load)
	return nil
}

// recordBatchOutcome folds one successful POST's response into the stats and
// dead-letter ring. mAt resolves a rejected index to its record — lazily, so
// the zero-re-encode frame path only decodes the (rare) rejects.
func (f *Forwarder) recordBatchOutcome(resp *api.BatchSubmitResponse, batchLen int, mAt func(int) results.Measurement) {
	f.statsMu.Lock()
	f.lastErr = nil
	f.batches++
	f.forwarded += uint64(resp.Accepted)
	f.rejected += uint64(len(resp.Rejected))
	var rejSummary map[string]int
	if len(resp.Rejected) > 0 {
		rejSummary = make(map[string]int)
		if f.rejectedByCode == nil {
			f.rejectedByCode = make(map[string]uint64)
		}
		for _, rej := range resp.Rejected {
			f.rejectedByCode[rej.Code]++
			rejSummary[rej.Code]++
			dl := DeadLetter{Code: rej.Code, Message: rej.Message}
			if rej.Index >= 0 && rej.Index < batchLen {
				dl.Measurement = mAt(rej.Index)
			}
			f.deadLetters = append(f.deadLetters, dl)
			if len(f.deadLetters) > f.cfg.DeadLetterLimit {
				f.deadLetters = f.deadLetters[len(f.deadLetters)-f.cfg.DeadLetterLimit:]
			}
		}
	}
	f.statsMu.Unlock()
	if rejSummary != nil {
		f.logf("federation: upstream rejected %d of %d records (by code: %v); dead-lettered, not re-queued",
			len(resp.Rejected), batchLen, rejSummary)
	}
}

// ackBatch acknowledges a whole sent batch (rejected records included: they
// are terminally disposed of) and, when the contiguous prefix advanced, lets
// the cursor file follow if it is due.
func (f *Forwarder) ackBatch(n int, cseqAt func(int) uint64) {
	advanced := false
	for i := 0; i < n; i++ {
		if c := cseqAt(i); c != 0 && f.acks.ack(c) {
			advanced = true
		}
	}
	if advanced {
		f.ackedCursor.Store(f.acks.cursor())
		f.persistCursor(false)
	}
}

// persistCursor writes the acknowledged cursor to its file when the file is
// behind it — at most once per FlushInterval unless force is set, as the ends
// of a catch-up, a Flush and Close set it. A failed save is not fatal (a stale
// cursor only means re-forwarding work the upstream merges idempotently), but
// a cursor that never persists degrades every restart to a full replay, so a
// streak's first failure and its end are logged — not every attempt, which on
// a full disk was a line per batch. Callers hold sendMu.
func (f *Forwarder) persistCursor(force bool) {
	cur := f.acks.cursor()
	if f.cursorPath == "" || cur == f.savedCursor.Load() || (!force && time.Since(f.lastSave) < f.cfg.FlushInterval) {
		return
	}
	f.lastSave = time.Now()
	// Through the WAL's filesystem, so the cursor shares its fault seam.
	if err := saveCursor(f.cfg.WAL.Config().FS, f.cursorPath, cur); err != nil {
		if f.saveFails == 0 {
			f.logf("federation: persisting forward cursor: %v (forwarding continues; a restart resumes from position %d)", err, f.savedCursor.Load())
		}
		f.saveFails++
		return
	}
	if f.saveFails > 0 {
		f.logf("federation: forward cursor persisted again after %d failed attempts", f.saveFails)
		f.saveFails = 0
	}
	f.savedCursor.Store(cur)
}

// flushOnce ships up to MaxBatch buffered records. On failure (after the
// SDK's retries) the records return to the head of the buffer, preserving
// per-measurement commit order, and the error is recorded — the next (now
// widened) tick tries again, which is what rides out an upstream restart.
func (f *Forwarder) flushOnce(ctx context.Context) error {
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	f.persistCursor(false) // every cycle, an idle or a failing one too, lets the file catch up
	f.mu.Lock()
	if f.pending.n == 0 {
		f.mu.Unlock()
		return nil
	}
	batch := make([]entry, min(f.pending.n, f.cfg.MaxBatch))
	f.pending.shift(len(batch), batch)
	f.mu.Unlock()

	if err := f.sendBatch(ctx, batch); err != nil {
		// Put the batch back at the head so commit order per measurement
		// survives the outage.
		f.mu.Lock()
		f.pending.unshift(batch)
		f.mu.Unlock()
		return err
	}
	return nil
}

// tailBatch is the batch a tail pass is filling: verbatim WAL frames in one
// stream, offsets[i] marking frame i's start and cseqs[i] its commit position.
type tailBatch struct {
	frames  []byte
	offsets []int
	cseqs   []uint64
}

// measurementAt decodes frame i; one that does not decode reads as zero, which
// the upstream rejects and the forwarder dead-letters.
func (b *tailBatch) measurementAt(i int) results.Measurement {
	end := len(b.frames)
	if i+1 < len(b.offsets) {
		end = b.offsets[i+1]
	}
	_, _, rec, _ := wire.DecodeRecord(b.frames[b.offsets[i]+wire.FrameHeaderLen : end])
	return results.Measurement(rec)
}

// shipTail sends the gathered tail batch — to a binary upstream as the exact
// CRC-framed bytes the segment files hold, decoded for the JSON lane — and
// empties it on success, returning how many records went. Caller holds sendMu.
func (f *Forwarder) shipTail(ctx context.Context) (int, error) {
	b := &f.tb
	n := len(b.cseqs)
	if n == 0 {
		return 0, nil
	}
	var err error
	if f.client.BinaryEncoding() {
		resp, perr := f.client.ForwardRecordFrames(ctx, b.frames)
		err = f.settle(resp, perr, n, b.measurementAt, func(i int) uint64 { return b.cseqs[i] })
	} else {
		batch := make([]entry, n)
		for i := range batch {
			batch[i] = entry{cseq: b.cseqs[i], m: b.measurementAt(i)}
		}
		err = f.sendBatch(ctx, batch)
	}
	if err != nil {
		return 0, err
	}
	b.frames, b.offsets, b.cseqs = b.frames[:0], b.offsets[:0], b.cseqs[:0]
	return n, nil
}

// tailPass runs one pass over the WAL tail, shipping every record appended
// since the previous pass that is not yet acknowledged, in MaxBatch batches
// and near-commit order, so the acknowledged prefix advances batch by batch.
// It returns how many records it shipped. Caller holds sendMu.
func (f *Forwarder) tailPass(ctx context.Context) (int, error) {
	shipped, err := f.shipTail(ctx) // what a failed pass left goes first
	if err != nil {
		return 0, err
	}
	b := &f.tb
	err = f.tail.Read(f.acks.acked, func(cseq uint64, frame []byte) error {
		b.offsets = append(b.offsets, len(b.frames))
		b.frames = append(b.frames, frame...)
		b.cseqs = append(b.cseqs, cseq)
		if len(b.cseqs) < f.cfg.MaxBatch {
			return nil
		}
		n, err := f.shipTail(ctx)
		shipped += n
		return err
	})
	if err != nil {
		return shipped, err
	}
	n, err := f.shipTail(ctx)
	return shipped + n, err
}

// catchUp drains the WAL tail until a pass finds nothing new, then flips
// back to live buffering. The flip happens before one final verification
// pass: a commit landing between the empty pass and the flip is appended to
// the WAL but not the buffer, and the final pass is what picks it up (a
// commit after the flip is buffered normally; if the final pass reads it too
// the upstream's idempotent merge absorbs the duplicate). If the final pass
// fails, catch-up mode resumes so the records stay WAL-covered.
func (f *Forwarder) catchUp(ctx context.Context) error {
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	f.persistCursor(false)
	for {
		n, err := f.tailPass(ctx)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	f.mu.Lock()
	f.catchingUp = false
	f.mu.Unlock()
	if _, err := f.tailPass(ctx); err != nil {
		f.mu.Lock()
		f.catchingUp = true
		f.mu.Unlock()
		return err
	}
	f.persistCursor(true)
	return nil
}

// drained reports whether the buffer is empty with no batch in flight: it
// waits for any ongoing send (sendMu) before reading the buffer, and a
// failed send re-queues its batch before releasing sendMu, so a true result
// means every observed commit was acknowledged upstream — which is where a
// Flush ends, so the cursor file is brought current before it returns.
func (f *Forwarder) drained() (empty, closed bool) {
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	f.mu.Lock()
	empty, closed = f.pending.n == 0 && !f.catchingUp, f.closed
	f.mu.Unlock()
	if empty {
		f.persistCursor(true)
	}
	return empty, closed
}

// Flush synchronously ships everything outstanding — completing any WAL
// catch-up, then draining the buffer (including any batch a background send
// had in flight) — returning the first upstream error. Callers that need
// the upstream current (tests, orderly shutdown) use it; steady-state
// forwarding never needs it.
func (f *Forwarder) Flush(ctx context.Context) error {
	for {
		f.mu.Lock()
		cu, closed := f.catchingUp, f.closed
		f.mu.Unlock()
		if closed {
			return ErrForwarderClosed
		}
		if cu {
			if err := f.catchUp(ctx); err != nil {
				return err
			}
			continue
		}
		empty, closed := f.drained()
		if closed {
			return ErrForwarderClosed
		}
		if empty {
			return nil
		}
		if err := f.flushOnce(ctx); err != nil {
			return err
		}
	}
}

// Close stops the background sender and attempts one final drain; records
// that still cannot reach the upstream are reported via the returned error
// and remain counted in Stats.Pending — and, with a WAL attached, remain
// past the persisted cursor, so the next run's catch-up forwards them.
func (f *Forwarder) Close() error {
	f.mu.Lock()
	if f.closing {
		f.mu.Unlock()
		return nil
	}
	f.closing = true
	f.mu.Unlock()

	close(f.done)
	f.wg.Wait()

	// Final drain (closed is not set yet), then refuse further commits.
	err := f.Flush(context.Background())
	f.sendMu.Lock()
	f.persistCursor(true) // whatever was acknowledged, drained or not
	f.sendMu.Unlock()
	f.mu.Lock()
	f.closed = true
	remaining := f.pending.n
	cu := f.catchingUp
	f.mu.Unlock()
	if err != nil {
		return fmt.Errorf("federation: close left %d records unforwarded: %w", remaining, err)
	}
	if remaining > 0 || cu {
		// A commit raced the final drain: it landed after the last empty
		// check but before closed was set, and the sender is already
		// stopped. Report it rather than silently stranding it (the edge's
		// own store still has the record, and a WAL-backed forwarder
		// resumes it from the cursor on the next run).
		return fmt.Errorf("federation: close left %d records unforwarded (committed during shutdown)", remaining)
	}
	return nil
}

// Stop halts the forwarder immediately, without the final drain Close
// performs: nothing further is sent or acknowledged, and the cursor file
// stays wherever its last save put it — up to one FlushInterval of
// acknowledgements behind Stats().AckedCursor. It is the crash simulation
// hook for kill-and-restart tests — everything past the cursor must survive
// in the WAL for the next run to resume from.
func (f *Forwarder) Stop() {
	f.mu.Lock()
	if f.closing {
		f.mu.Unlock()
		return
	}
	f.closing = true
	f.closed = true
	f.mu.Unlock()
	close(f.done)
	f.wg.Wait()
}

// logf routes an operational log line.
func (f *Forwarder) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// DeadLetters returns a copy of the most recent permanently rejected
// records (bounded by ForwarderConfig.DeadLetterLimit).
func (f *Forwarder) DeadLetters() []DeadLetter {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	out := make([]DeadLetter, len(f.deadLetters))
	copy(out, f.deadLetters)
	return out
}

// SpilledCount, DroppedCount, and DeadLetterCount are the health-probe
// accessors collectserver's /v2/healthz reads through its structural
// ForwarderHealth interface (methods returning builtins keep collectserver
// from importing this package). Spilled is buffer overflow absorbed by the
// WAL tail (lossless); Dropped is records lost outright (only possible
// without a WAL); DeadLetterCount is the current dead-letter ring size.
func (f *Forwarder) SpilledCount() uint64 { return f.spilled.Load() }

// DroppedCount returns how many records were dropped un-forwarded.
func (f *Forwarder) DroppedCount() uint64 { return f.dropped.Load() }

// DeadLetterCount returns the current size of the dead-letter ring.
func (f *Forwarder) DeadLetterCount() int {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	return len(f.deadLetters)
}

// Stats returns the forwarder's lifetime counters.
func (f *Forwarder) Stats() ForwarderStats {
	f.statsMu.Lock()
	var byCode map[string]uint64
	if len(f.rejectedByCode) > 0 {
		byCode = make(map[string]uint64, len(f.rejectedByCode))
		for k, v := range f.rejectedByCode {
			byCode[k] = v
		}
	}
	st := ForwarderStats{
		Forwarded:      f.forwarded,
		Rejected:       f.rejected,
		RejectedByCode: byCode,
		Batches:        f.batches,
		LastError:      f.lastErr,
	}
	f.statsMu.Unlock()
	f.mu.Lock()
	st.Pending = f.pending.n
	st.CatchingUp = f.catchingUp
	f.mu.Unlock()
	st.Observed = f.observed.Load()
	st.Dropped = f.dropped.Load()
	st.Spilled = f.spilled.Load()
	st.AckedCursor = f.ackedCursor.Load()
	st.FlushInterval = f.curInterval()
	return st
}

var (
	_ results.CommitObserver       = (*Forwarder)(nil)
	_ results.CommitStreamObserver = (*Forwarder)(nil)
)
