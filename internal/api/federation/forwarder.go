// Package federation implements Encore's distributed-collectors topology:
// N edge collection servers each ingest their region's beacon traffic
// locally, and a Forwarder on each edge ships the edge's write-ahead log into
// batched POST /v2/submissions calls against one upstream aggregation-tier
// instance. The upstream (a collection server started with AllowAttributed)
// feeds its own store and incremental Aggregator, so the merged tier reaches
// the same DetectIncremental verdicts a single collector ingesting all the
// traffic would — built on the v2 API instead of a bespoke replication
// channel.
//
// The log is the forwarder's queue. The forwarder attaches to the edge store
// like the Aggregator and WAL tiers do (results.Store.AddObserver), but a
// commit only counts: once MaxBatch commits are new it kicks the sender. The
// sender runs one pass per kick, or per flush window when traffic is light.
// A pass ships everything the positioned, shard-merged results.WALTail holds
// past the acknowledged prefix, as the verbatim frames the segments hold. It
// splits them into two lanes by the WAL shard (so by measurement ID) and keeps
// one POST per lane in flight: the upstream works on two batches while the
// edge reads the next, and no two records of one ID are ever in flight
// together, so the upstream applies each ID's commits in edge order.
//
// Forwarding is lossless and resumable: the forwarder persists the highest
// contiguously acknowledged commit-stream position in a tiny fsynced cursor
// file beside the WAL (at most once per FlushInterval, so a restart re-sends
// at most that interval's acknowledgements plus the batches in flight), WAL
// compaction keeps every record past that file, and a restart resumes from
// it. The forwarder also honors the upstream's explicit backpressure
// (api.LoadSignal and Retry-After), widening its flush window when the
// upstream is loaded or failing instead of hammering it in lockstep with every
// other edge.
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

// errPassEnd stops a pass's tail read at the position it was to reach.
var errPassEnd = errors.New("federation: pass reached its end position")

// ErrForwarderClosed is returned by Flush after Close or Stop.
var ErrForwarderClosed = errors.New("federation: forwarder closed")

// lanes is how many POSTs a forwarder keeps in flight, one per lane, so the
// upstream's work on one batch overlaps the edge's and the upstream's on the
// next (a pipeline runs at its slowest stage: "A Multiprocessor Communication
// Architecture for High Speed Networks", PAPERS.md). Two is as many idle
// connections per host as net/http's default transport keeps alive; deeper
// windows re-dial, and measured no faster. The pass assumes two.
const lanes = 2

// ForwarderConfig parameterizes a Forwarder. Zero fields fall back to
// defaults.
type ForwarderConfig struct {
	// Upstream is the aggregation-tier base URL (required unless Client is
	// set).
	Upstream string
	// Client overrides the SDK client used for upstream calls; nil builds
	// one from Upstream with default retry configuration. The forwarder
	// always ships binary record frames, whatever the client's encoding.
	Client *apiclient.Client
	// MaxBatch caps measurements per POST (default 128), and is how many new
	// commits kick a pass.
	MaxBatch int
	// FlushInterval is how often a pass runs when fewer than MaxBatch
	// commits arrive (default 200ms): it bounds edge-to-upstream latency
	// under light traffic. It is the floor of a dynamic window: the
	// upstream's load signal and send failures widen the effective interval
	// up to MaxFlushInterval, and a healthy unloaded response snaps it back.
	FlushInterval time.Duration
	// MaxFlushInterval caps the widened flush window (default 10× the
	// flush interval).
	MaxFlushInterval time.Duration
	// Deprecated: ignored; the WAL is the only queue. Kept because
	// bench/internal/serve sets it; it goes with the benchmark change
	// ROADMAP.md lists for it.
	MaxBuffer int
	// WAL is the edge's write-ahead log, which the forwarder ships from
	// (required). The forwarder persists its progress in a cursor file beside
	// it (CursorPath), resumes from the cursor on restart, and registers a
	// compaction-retention floor so Compact never folds away a record the
	// upstream has not acknowledged. Attach the WAL to the store before the
	// forwarder.
	WAL *results.WAL
	// CursorPath overrides where the cursor file lives (default
	// forward-cursor.json inside the WAL directory).
	CursorPath string
	// DeadLetterLimit bounds the ring of most recent permanently rejected
	// records kept for inspection via DeadLetters (default 64).
	DeadLetterLimit int
	// Logf receives operational log lines (dead-letter batches, cursor
	// persistence failures); nil uses the standard logger.
	Logf func(format string, args ...any)
}

// tailBatch is a batch of verbatim WAL frames in one stream, offsets[i]
// marking frame i's start and cseqs[i] its commit position.
type tailBatch struct {
	frames  []byte
	offsets []int
	cseqs   []uint64
}

func (b *tailBatch) add(cseq uint64, frame []byte) {
	b.offsets = append(b.offsets, len(b.frames))
	b.frames = append(b.frames, frame...)
	b.cseqs = append(b.cseqs, cseq)
}

func (b *tailBatch) reset() {
	b.frames, b.offsets, b.cseqs = b.frames[:0], b.offsets[:0], b.cseqs[:0]
}

// frame returns frame i.
func (b *tailBatch) frame(i int) []byte {
	end := len(b.frames)
	if i+1 < len(b.offsets) {
		end = b.offsets[i+1]
	}
	return b.frames[b.offsets[i]:end]
}

// measurementAt decodes frame i; one that does not decode reads as zero, which
// the upstream rejects and the forwarder dead-letters.
func (b *tailBatch) measurementAt(i int) results.Measurement {
	_, _, rec, _ := wire.DecodeRecord(b.frame(i)[wire.FrameHeaderLen:])
	return results.Measurement(rec)
}

// lane ships one partition of the measurement IDs, one POST at a time, from
// its own goroutine. The pass goroutine owns fill and sent except while busy,
// when the lane goroutine reads sent.
type lane struct {
	fill tailBatch // frames read from the tail, not yet sent
	sent tailBatch // the POST in flight, or one that failed and goes first
	busy bool
	req  chan context.Context // starts a POST of sent
	res  chan postResult
}

type postResult struct {
	resp *api.BatchSubmitResponse
	err  error
}

// Forwarder ships an edge collector's committed measurements from its WAL to
// an upstream aggregation tier. It implements results.CommitStreamObserver.
type Forwarder struct {
	client     *apiclient.Client
	cfg        ForwarderConfig
	cursorPath string

	// sendMu serializes passes (the background sender's and Flush's), so a
	// lane never has two POSTs out. Everything up to the channels is guarded
	// by it.
	sendMu    sync.Mutex
	acks      *ackTracker
	tail      *results.WALTail
	lanes     [lanes]lane
	lastSave  time.Time
	saveFails int

	kick    chan struct{}
	done    chan struct{} // closed to stop the background sender
	stopped chan struct{} // closed when the background sender has returned
	posters sync.WaitGroup

	closing atomic.Bool // set by the first Close or Stop
	closed  atomic.Bool // set by Stop at once, by Close after its drain: nothing more is sent

	// observed and pending are bumped on the commit path, under the store
	// shard lock — atomics, so a commit takes no lock of the forwarder's.
	// committed is the highest commit position seen; ackedCursor mirrors
	// acks.cursor() for lock-free reads; savedCursor is what the cursor file
	// holds, and what the WAL retention floor reads. interval is the current
	// flush window in nanoseconds.
	observed    atomic.Uint64
	pending     atomic.Uint64
	committed   atomic.Uint64
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

// NewForwarder creates a running forwarder. It loads the persisted cursor and
// starts with a pass, shipping any records a previous run committed but never
// got acknowledged.
func NewForwarder(cfg ForwarderConfig) (*Forwarder, error) {
	if cfg.WAL == nil {
		// An in-memory queue would have to drop records in a long enough
		// outage: the silent loss forwarding exists to prevent.
		return nil, errors.New("federation: ForwarderConfig needs a WAL; the forwarder ships from the log")
	}
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
	if cfg.DeadLetterLimit <= 0 {
		cfg.DeadLetterLimit = 64
	}
	cursorPath := cfg.CursorPath
	if cursorPath == "" {
		cursorPath = filepath.Join(cfg.WAL.Dir(), "forward-cursor.json")
	}
	cursor, err := loadCursor(cursorPath)
	if err != nil {
		return nil, err
	}
	f := &Forwarder{
		client:     cfg.Client,
		cfg:        cfg,
		cursorPath: cursorPath,
		acks:       newAckTracker(cursor),
		tail:       cfg.WAL.Tail(),
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		stopped:    make(chan struct{}),
	}
	f.interval.Store(int64(cfg.FlushInterval))
	f.committed.Store(cursor)
	f.ackedCursor.Store(cursor)
	f.savedCursor.Store(cursor)
	// Compaction must not fold away a record a restart would resume from,
	// and a restart resumes from the file: the floor follows the persisted
	// cursor, not the in-memory one ahead of it.
	cfg.WAL.SetRetention(f.savedCursor.Load)
	f.kick <- struct{}{}
	for i := range f.lanes {
		l := &f.lanes[i]
		l.req, l.res = make(chan context.Context, 1), make(chan postResult, 1)
		f.posters.Add(1)
		go f.post(l)
	}
	go f.run()
	return f, nil
}

// CommitStream implements results.CommitStreamObserver. It runs under the
// store shard lock that serialized the commit, and only counts: the WAL,
// attached before the forwarder, already holds the record, and the next pass
// reads it from there. In-place upgrades ship as the upgraded record; the
// upstream applies the same terminal-state-wins merge the edge applied, so
// re-forwarding either after a crash converges to the edge's final state.
func (f *Forwarder) CommitStream(commitSeq, _ uint64, _ *results.Measurement, _ results.Measurement) {
	f.noteCommitted(commitSeq)
	f.count()
}

// Commit implements results.CommitObserver for a store that dispatches
// without a position; like CommitStream, it only counts.
func (f *Forwarder) Commit(_ *results.Measurement, _ results.Measurement) { f.count() }

// count records one commit and kicks the sender when MaxBatch are new.
func (f *Forwarder) count() {
	f.observed.Add(1)
	if f.pending.Add(1) == uint64(f.cfg.MaxBatch) {
		select {
		case f.kick <- struct{}{}:
		default:
		}
	}
}

// noteCommitted raises the highest commit position seen to cseq.
func (f *Forwarder) noteCommitted(cseq uint64) {
	for c := f.committed.Load(); cseq > c && !f.committed.CompareAndSwap(c, cseq); c = f.committed.Load() {
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
		next = max(next, time.Duration(load.SuggestedFlushMillis)*time.Millisecond)
	}
	f.interval.Store(int64(min(next, f.cfg.MaxFlushInterval)))
}

// widenInterval doubles the flush window after a failed pass, up to the cap —
// the edge-side half of riding out an upstream outage without a retry storm
// (the SDK's per-request jittered backoff is the other half).
func (f *Forwarder) widenInterval() {
	f.interval.Store(int64(min(2*f.curInterval(), f.cfg.MaxFlushInterval)))
}

// run runs a pass on each kick and each flush window until Close or Stop. The
// timer re-arms with the current dynamic window, so upstream load advice and
// failure backoff take effect on the next cycle; after a failed pass kicks are
// ignored until the widened window has passed.
func (f *Forwarder) run() {
	defer close(f.stopped)
	timer := time.NewTimer(f.curInterval())
	defer timer.Stop()
	failed := false
	for {
		select {
		case <-f.done:
			return
		case <-f.kick:
			if failed {
				continue
			}
			timer.Stop()
		case <-timer.C:
		}
		f.sendMu.Lock()
		_, err := f.pass(context.Background())
		f.sendMu.Unlock()
		if failed = err != nil; failed {
			f.widenInterval()
		}
		timer.Reset(f.curInterval())
	}
}

// post is a lane's goroutine: it POSTs the lane's sent batch on each request
// until the lane is closed.
func (f *Forwarder) post(l *lane) {
	defer f.posters.Done()
	for ctx := range l.req {
		resp, err := f.client.ForwardRecordFrames(ctx, l.sent.frames)
		l.res <- postResult{resp, err}
	}
}

// pass ships everything the WAL tail has that is not yet acknowledged and
// returns how many records it read. Frames go to the lane of their WAL shard,
// and a lane ships its batch when it is full, once its previous POST has been
// acknowledged; the other lane's POST runs on meanwhile. What is left at the
// end goes as one POST when it fits in one. A pass never re-reads the tail for
// stragglers: what arrives meanwhile is the next kick's or the next window's.
// Caller holds sendMu.
func (f *Forwarder) pass(ctx context.Context) (int, error) {
	f.pending.Store(0)
	f.persistCursor(false) // every pass, an idle or a failing one too, lets the file catch up
	// A failed pass left batches behind: each lane re-sends the one that
	// failed, then what it read behind it.
	var err error
	for i := 0; i < 2*lanes && err == nil; i++ {
		err = f.ship(ctx, &f.lanes[i%lanes])
	}
	// The pass ends at the highest position committed when it began: a tail
	// read while commits keep arriving would otherwise run on, and every
	// acknowledgement above a position still in a shard's write buffer would
	// wait in the out-of-order set until the pass ended. With nothing seen
	// past the cursor yet (a restart's backlog) the pass reads all there is.
	read, end := 0, f.committed.Load()
	if end == f.acks.cursor() {
		end = ^uint64(0)
	}
	if err == nil {
		err = f.tail.Read(f.acks.acked, func(cseq uint64, frame []byte) error {
			f.noteCommitted(cseq)
			read++
			i := f.tail.Shard() % lanes
			l, o := &f.lanes[i], &f.lanes[1-i]
			l.fill.add(cseq, frame)
			var err error
			if len(l.fill.cseqs) >= f.cfg.MaxBatch {
				err = f.ship(ctx, l)
			} else if len(o.fill.cseqs) > 0 && cseq-o.fill.cseqs[0] >= 4*uint64(f.cfg.MaxBatch) {
				// A lane left behind holds the acknowledged prefix back:
				// it ships what it has once it trails by a few batches.
				err = f.ship(ctx, o)
			}
			if err == nil && cseq >= end {
				err = errPassEnd
			}
			return err
		})
		if err == errPassEnd {
			err = nil
		}
	}
	if err == nil {
		if err = f.awaitAll(); err == nil {
			f.mergeLeftovers()
			for i := 0; i < lanes && err == nil; i++ {
				err = f.ship(ctx, &f.lanes[i])
			}
		}
	}
	if aerr := f.awaitAll(); err == nil {
		err = aerr
	}
	if !f.closed.Load() {
		f.persistCursor(false)
	}
	return read, err
}

// ship waits for the lane's POST in flight and settles it; if that
// succeeded, it sends the lane's next batch: one that failed before, else
// what the lane has read.
func (f *Forwarder) ship(ctx context.Context, l *lane) error {
	if err := f.await(l); err != nil {
		return err
	}
	if f.saveDue() {
		// The other lane is awaited too, so the file covers every
		// acknowledgement so far and no request is left in flight.
		if err := f.awaitAll(); err != nil {
			return err
		}
		f.persistCursor(false)
	}
	if len(l.sent.cseqs) == 0 {
		if len(l.fill.cseqs) == 0 {
			return nil
		}
		l.sent, l.fill = l.fill, l.sent
	}
	if f.closed.Load() {
		return ErrForwarderClosed
	}
	l.busy = true
	l.req <- ctx
	return nil
}

// await waits for the lane's POST in flight, if any, and folds in its
// outcome: a success acknowledges the batch, a failure keeps it for the next
// ship and is returned. After Stop nothing more is acknowledged.
func (f *Forwarder) await(l *lane) error {
	if !l.busy {
		return nil
	}
	r := <-l.res
	l.busy = false
	if f.closed.Load() {
		return ErrForwarderClosed
	}
	if err := f.settleBatch(r, &l.sent); err != nil {
		return err
	}
	l.sent.reset()
	return nil
}

// awaitAll awaits every lane, returning the first failure.
func (f *Forwarder) awaitAll() error {
	var first error
	for i := range f.lanes {
		if err := f.await(&f.lanes[i]); first == nil {
			first = err
		}
	}
	return first
}

// mergeLeftovers folds the lanes' last batches into one POST, in position
// order, when together they fit in MaxBatch, so a light pass costs one
// request rather than one per lane. It runs with no POST in flight, so one
// request carrying two lanes' IDs cannot overlap another.
func (f *Forwarder) mergeLeftovers() {
	a, b := &f.lanes[0].fill, &f.lanes[1].fill
	if len(a.cseqs) == 0 || len(b.cseqs) == 0 || len(a.cseqs)+len(b.cseqs) > f.cfg.MaxBatch {
		return
	}
	m := &f.lanes[1].sent // empty: the pass settled it
	for i, j := 0, 0; i < len(a.cseqs) || j < len(b.cseqs); {
		if j == len(b.cseqs) || (i < len(a.cseqs) && a.cseqs[i] < b.cseqs[j]) {
			m.add(a.cseqs[i], a.frame(i))
			i++
		} else {
			m.add(b.cseqs[j], b.frame(j))
			j++
		}
	}
	*a, *m = *m, *a
	m.reset()
	b.reset()
}

// settleBatch folds in the outcome of one POST. A failure is recorded and
// returned. A success acknowledges every record — including per-index
// rejections, which are dead-lettered (counted, logged once per batch, kept
// in a bounded ring) rather than re-sent, so one poison record cannot wedge
// the ordered stream.
func (f *Forwarder) settleBatch(r postResult, b *tailBatch) error {
	if r.err != nil {
		f.statsMu.Lock()
		f.lastErr = r.err
		f.statsMu.Unlock()
		return r.err
	}
	f.recordBatchOutcome(r.resp, b)
	for _, c := range b.cseqs {
		f.acks.ack(c)
	}
	f.ackedCursor.Store(f.acks.cursor())
	f.noteLoad(r.resp.Load)
	return nil
}

// saveDue reports whether the cursor file is behind the acknowledged cursor
// and an interval has passed since the last save.
func (f *Forwarder) saveDue() bool {
	return f.acks.cursor() != f.savedCursor.Load() && time.Since(f.lastSave) >= f.cfg.FlushInterval
}

// persistCursor writes the acknowledged cursor to its file when the file is
// behind it — at most once per FlushInterval unless force is set, as the end
// of a Flush and Close set it. Passes save with no POST in flight: at their
// start and end, and in between once both lanes have been awaited. A failed
// save is not fatal (a stale cursor only means re-forwarding work the
// upstream merges idempotently), but a cursor that never persists degrades
// every restart to a full replay, so a streak's first failure and its end
// are logged — not every attempt, which on a full disk was a line per batch.
// Callers hold sendMu.
func (f *Forwarder) persistCursor(force bool) {
	cur := f.acks.cursor()
	if cur == f.savedCursor.Load() || (!force && !f.saveDue()) {
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

// Flush synchronously ships everything outstanding — passes until the tail
// has nothing new, then saves the cursor — returning the first upstream
// error. Callers that need the upstream current (tests, orderly shutdown) use
// it; steady-state forwarding never needs it.
func (f *Forwarder) Flush(ctx context.Context) error {
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	for {
		if f.closed.Load() {
			return ErrForwarderClosed
		}
		n, err := f.pass(ctx)
		if err != nil {
			return err
		}
		if n == 0 {
			f.persistCursor(true)
			return nil
		}
	}
}

// Close stops the background sender and attempts one final drain. Records
// that still cannot reach the upstream are reported via the returned error;
// they stay past the persisted cursor, so the next run forwards them. A
// commit after the drain waits there the same way.
func (f *Forwarder) Close() error { return f.shutdown(true) }

// Stop halts the forwarder without the final drain Close performs: nothing
// further is sent or acknowledged, the POSTs in flight are waited for but
// not acknowledged, and the cursor file stays wherever its last save put it
// — up to one FlushInterval of acknowledgements behind Stats().AckedCursor.
// It is the crash simulation hook for kill-and-restart tests — everything
// past the cursor must survive in the WAL for the next run to resume from.
func (f *Forwarder) Stop() { _ = f.shutdown(false) }

func (f *Forwarder) shutdown(drain bool) error {
	if !f.closing.CompareAndSwap(false, true) {
		return nil
	}
	f.closed.Store(!drain) // Stop: refuse to send or acknowledge from now on
	close(f.done)
	<-f.stopped
	var err error
	if drain {
		err = f.Flush(context.Background())
	}
	f.sendMu.Lock() // after any Flush in progress, which leaves no POST in flight
	if drain {
		f.persistCursor(true) // whatever was acknowledged, drained or not
	}
	f.closed.Store(true)
	for i := range f.lanes {
		close(f.lanes[i].req)
	}
	f.posters.Wait()
	f.sendMu.Unlock()
	if err != nil {
		return fmt.Errorf("federation: close left %d records unforwarded: %w", f.Lag(), err)
	}
	return nil
}

// logf routes an operational log line.
func (f *Forwarder) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

var _ results.CommitStreamObserver = (*Forwarder)(nil)
