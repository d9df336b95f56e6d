package federation

// Tests for the forwarder's O(new records) drain: the cursor file's cadence
// and fault seam, the retention floor following the file rather than the
// in-memory cursor, the bound on the out-of-order acknowledgement set, and
// the catch-up benchmark that shows a pass no longer costs the log's length.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encore/internal/api"
	apiclient "encore/internal/api/client"
	"encore/internal/core"
	"encore/internal/faultinject"
	"encore/internal/results"
)

// ackAll is an upstream that acknowledges every batch at once, as the bench
// ledger's forwarder leaf builds it; onBatch runs on the sending goroutine.
type ackAll struct{ onBatch func() }

func (a ackAll) RoundTrip(req *http.Request) (*http.Response, error) {
	_, _ = io.Copy(io.Discard, req.Body)
	req.Body.Close()
	if a.onBatch != nil {
		a.onBatch()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"accepted":0}` + "\n")),
		Request:    req,
	}, nil
}

func stubClient(onBatch func()) *apiclient.Client {
	return apiclient.NewWithConfig("http://stub", apiclient.Config{
		HTTPClient: &http.Client{Transport: ackAll{onBatch}}, BinaryEncoding: true,
	})
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// awaitLive waits for the forwarder's start-up catch-up — the background
// sender's first step — to finish, so that afterwards only the test's own
// calls and size kicks drive sends.
func awaitLive(t *testing.T, f *Forwarder) {
	t.Helper()
	waitFor(t, "the start-up catch-up", func() bool { return !f.Stats().CatchingUp })
	f.sendMu.Lock() // the step that cleared the flag holds it until it is done
	f.sendMu.Unlock()
}

// countingUpstream is gatedUpstream that also counts the records each
// request carries, so a test can tell a re-sent suffix from a full replay.
func countingUpstream(t *testing.T) (*results.Store, *atomic.Bool, *atomic.Int64, string) {
	t.Helper()
	upStore, _, upSrv := upstream(t)
	var down atomic.Bool
	var records atomic.Int64
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "upstream down", http.StatusServiceUnavailable)
			return
		}
		body, _ := io.ReadAll(r.Body)
		var req api.BatchSubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("decoding forwarded batch: %v", err)
		}
		records.Add(int64(len(req.Measurements)))
		r.Body = io.NopCloser(bytes.NewReader(body))
		upSrv.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(gate.Close)
	return upStore, &down, &records, gate.URL
}

// crashOnCursorRename is a FaultFS that, once armed, dies between the cursor's
// temporary file reaching the disk and its rename.
type crashOnCursorRename struct {
	*faultinject.FaultFS
	armed *atomic.Bool
}

func (c crashOnCursorRename) Rename(oldpath, newpath string) error {
	if c.armed.Load() && strings.HasSuffix(newpath, "forward-cursor.json") {
		_, _ = c.FaultFS.Crash(0)
	}
	return c.FaultFS.Rename(oldpath, newpath)
}

// TestCursorSaveFaults puts the cursor file behind the WAL's fault seam: with
// ENOSPC, short writes or a crash before the rename on every save, the file
// keeps its last good value (never a corrupt one), forwarding goes on where
// the disk still reads, the failure is logged once per streak and its end
// once, and the run resumed from the stale file re-sends only the suffix past
// it — the upstream ends complete with nothing dropped.
func TestCursorSaveFaults(t *testing.T) {
	const first, second, total = 40, 60, 100
	for _, fault := range []string{"enospc", "short-write", "crash-before-rename"} {
		t.Run(fault, func(t *testing.T) {
			dir := t.TempDir()
			cursorPath := filepath.Join(dir, "forward-cursor.json")
			upStore, down, sent, url := countingUpstream(t)
			ffs := faultinject.NewFaultFS()
			var armed atomic.Bool
			wal, err := results.OpenWAL(results.WALConfig{Dir: dir, Policy: results.SyncNone, FS: crashOnCursorRename{ffs, &armed}})
			if err != nil {
				t.Fatal(err)
			}
			edge := results.NewStore()
			edge.AddObserver(wal)
			var logMu sync.Mutex
			var logs []string
			cfg := ForwarderConfig{
				Client:   apiclient.NewWithConfig(url, apiclient.Config{Retries: 1, RetryBackoff: time.Millisecond, GzipThreshold: -1}),
				MaxBatch: 8, FlushInterval: time.Millisecond, WAL: wal,
				Logf: func(format string, args ...any) {
					logMu.Lock()
					logs = append(logs, fmt.Sprintf(format, args...))
					logMu.Unlock()
				},
			}
			f, err := NewForwarder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			edge.AddObserver(f)
			add := func(from, to int) {
				for i := from; i < to; i++ {
					if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
						t.Fatal(err)
					}
				}
			}
			add(0, first)
			if err := f.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got, _ := loadCursor(cursorPath); got != first {
				t.Fatalf("cursor file holds %d after a Flush, want %d", got, first)
			}

			// The rest is committed and made durable during an outage, so the
			// disk faults that follow hit nothing but cursor saves.
			down.Store(true)
			add(first, total)
			if err := wal.Sync(); err != nil {
				t.Fatal(err)
			}
			switch fault {
			case "enospc":
				ffs.SetWriteBudget(0)
			case "short-write":
				ffs.InjectShortWrites(1 << 20)
			default:
				armed.Store(true)
			}
			down.Store(false)

			if fault == "crash-before-rename" {
				// The first save takes the machine down.
				waitFor(t, "the crash", func() bool {
					_, err := ffs.Glob("x")
					return err != nil
				})
			} else {
				waitFor(t, "forwarding to finish despite failing saves", func() bool { return f.Stats().AckedCursor == total })
				if upStore.Len() != total {
					t.Fatalf("upstream has %d of %d records while cursor saves fail", upStore.Len(), total)
				}
			}
			f.Stop()
			got, err := loadCursor(cursorPath)
			if err != nil {
				t.Fatalf("cursor file corrupt after %s: %v", fault, err)
			}
			if got != first {
				t.Fatalf("cursor file holds %d after %s on every save, want the last good %d", got, fault, first)
			}
			logMu.Lock()
			failures := 0
			for _, l := range logs {
				if strings.Contains(l, "persisting forward cursor") {
					failures++
				}
			}
			logMu.Unlock()
			if failures != 1 {
				t.Fatalf("a streak of failed saves logged %d lines, want 1:\n%s", failures, strings.Join(logs, "\n"))
			}
			_ = wal.Close()

			// Restart on a healthy disk: the stale cursor costs a re-send of
			// the suffix past it, no more.
			sentBefore := sent.Load()
			wal2, err := results.OpenWAL(results.WALConfig{Dir: dir, Policy: results.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer wal2.Close()
			cfg.WAL = wal2
			f2, err := NewForwarder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := f2.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer f2.Stop()
			st := f2.Stats()
			if st.AckedCursor != total || st.Dropped != 0 {
				t.Fatalf("resumed forwarder: cursor %d (want %d), dropped %d", st.AckedCursor, total, st.Dropped)
			}
			if upStore.Len() != total {
				t.Fatalf("upstream has %d of %d records after the resume", upStore.Len(), total)
			}
			if resent := sent.Load() - sentBefore; resent > second {
				t.Fatalf("resume re-sent %d records, want at most the %d past the file cursor", resent, second)
			}
			if got, _ := loadCursor(cursorPath); got != total {
				t.Fatalf("cursor file holds %d after the resumed Flush, want %d", got, total)
			}
		})
	}
}

// TestCursorSaveRecoveryIsLogged checks the other end of a failure streak:
// when saves work again the forwarder says so once, with the count.
func TestCursorSaveRecoveryIsLogged(t *testing.T) {
	ffs := faultinject.NewFaultFS()
	wal, err := results.OpenWAL(results.WALConfig{Dir: t.TempDir(), Policy: results.SyncNone, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	edge := results.NewStore()
	edge.AddObserver(wal)
	for i := 0; i < 64; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	ffs.SetWriteBudget(0)
	var logs []string // written under sendMu by whichever goroutine is sending
	f, err := NewForwarder(ForwarderConfig{
		Client: stubClient(nil), MaxBatch: 8, FlushInterval: time.Microsecond, WAL: wal,
		Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	ffs.SetWriteBudget(-1)
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	if len(logs) != 2 || !strings.Contains(logs[0], "persisting forward cursor") || !strings.Contains(logs[1], "persisted again after") {
		t.Fatalf("want one failure line and one recovery line, got %d:\n%s", len(logs), strings.Join(logs, "\n"))
	}
	if got, _ := loadCursor(filepath.Join(wal.Dir(), "forward-cursor.json")); got != 64 {
		t.Fatalf("cursor file holds %d after recovery, want 64", got)
	}
}

// TestCompactionBetweenCrashAndRestartLeavesNoGap is the reason the retention
// floor reads the cursor file: Stop leaves the file behind the in-memory
// cursor, a Compact runs before the restart, and the restarted forwarder —
// resuming from the file — must find every position past it still in the
// log. Had compaction folded up to the in-memory cursor, the superseded
// inserts between the two would be gone and the contiguous cursor would stall
// on the gap forever.
func TestCompactionBetweenCrashAndRestartLeavesNoGap(t *testing.T) {
	const ids = 100
	dir := t.TempDir()
	upStore, _, upSrv := upstream(t)
	wal := openTestWAL(t, dir)
	defer wal.Close()
	edge := results.NewStore()
	edge.AddObserver(wal)
	cfg := ForwarderConfig{
		Client:   apiclient.NewWithConfig(upSrv.URL, apiclient.Config{Retries: 1, RetryBackoff: time.Millisecond}),
		MaxBatch: 8, WAL: wal,
		FlushInterval: time.Hour, // after the first save none is due again; the test drives the sends
	}
	f, err := NewForwarder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	awaitLive(t, f)
	// Every ID is inserted and then upgraded: two positions each, the first
	// superseded, so compaction has something to fold.
	for i := 0; i < ids; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateInit)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ids; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	for f.Stats().Pending > 0 {
		if err := f.flushOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the last batch's acknowledgement", func() bool { return f.Stats().AckedCursor == 2*ids })
	f.Stop()
	fileCursor, err := loadCursor(filepath.Join(dir, "forward-cursor.json"))
	if err != nil {
		t.Fatal(err)
	}
	if fileCursor >= 2*ids {
		t.Fatalf("file cursor %d is not behind the in-memory cursor %d; the test needs the gap", fileCursor, 2*ids)
	}
	if err := wal.Compact(); err != nil {
		t.Fatal(err)
	}

	f2, err := NewForwarder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f2)
	if err := f2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer f2.Stop()
	st := f2.Stats()
	if st.AckedCursor != 2*ids {
		t.Fatalf("restarted forwarder stalled at %d of %d: compaction folded a position past the file cursor %d", st.AckedCursor, 2*ids, fileCursor)
	}
	if st.Dropped != 0 {
		t.Fatalf("restarted forwarder dropped %d records", st.Dropped)
	}
	if upStore.Len() != ids {
		t.Fatalf("upstream has %d of %d measurements", upStore.Len(), ids)
	}
	for _, m := range upStore.All() {
		if m.State != core.StateSuccess {
			t.Fatalf("upstream %s ended in state %s, want the upgrade", m.MeasurementID, m.State)
		}
	}
}

// TestCursorInvariantsUnderLoad samples the two cursors while committers and
// a flapping upstream keep the forwarder moving between live and catch-up
// mode: file <= in-memory <= highest position committed, both monotone, the
// file always readable, nothing dropped.
func TestCursorInvariantsUnderLoad(t *testing.T) {
	const commits = 3000
	dir := t.TempDir()
	_, down, gate := gatedUpstream(t)
	wal := openTestWAL(t, dir)
	defer wal.Close()
	edge := results.NewStore()
	edge.AddObserver(wal)
	f, err := NewForwarder(ForwarderConfig{
		Client:   apiclient.NewWithConfig(gate.URL, apiclient.Config{Retries: 1, RetryBackoff: time.Millisecond}),
		MaxBatch: 16, FlushInterval: 5 * time.Millisecond, MaxBuffer: 64, WAL: wal,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	if err := f.Flush(context.Background()); err != nil { // start live, so the first outage spills
		t.Fatal(err)
	}

	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		var lastFile, lastMem uint64
		for {
			// The file first: it may only trail the in-memory cursor.
			file, err := loadCursor(filepath.Join(dir, "forward-cursor.json"))
			mem := f.Stats().AckedCursor
			switch {
			case err != nil:
				t.Errorf("cursor file unreadable mid-run: %v", err)
			case file < lastFile || mem < lastMem:
				t.Errorf("a cursor went backwards: file %d -> %d, in-memory %d -> %d", lastFile, file, lastMem, mem)
			case file > mem || mem > commits:
				t.Errorf("want file <= in-memory <= commits made, got %d, %d, %d", file, mem, commits)
			}
			lastFile, lastMem = file, mem
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	for i := 0; i < commits; i++ {
		if i%500 == 250 {
			down.Store(true) // forces a spill into catch-up mode
		} else if i%500 == 370 {
			down.Store(false)
		}
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	f.Stop()
	close(stop)
	<-sampled
	if st := f.Stats(); st.Dropped != 0 || st.Spilled == 0 {
		t.Fatalf("want a run that spilled into catch-up mode and dropped nothing, got %+v", st)
	}
}

// TestCursorSaveCadence pins when the cursor file is written: at most once per
// FlushInterval while acknowledgements arrive (so a crash re-sends at most one
// interval's acknowledgements plus the batch in flight), by the next cycle once
// an interval has passed, at the end of a catch-up or a Flush, on Close — and
// never on Stop. The clock is moved by rewinding lastSave.
func TestCursorSaveCadence(t *testing.T) {
	dir := t.TempDir()
	wal := openTestWAL(t, dir)
	defer wal.Close()
	edge := results.NewStore()
	edge.AddObserver(wal)
	cfg := ForwarderConfig{Client: stubClient(nil), MaxBatch: 8, FlushInterval: time.Hour, WAL: wal}
	f, err := NewForwarder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	awaitLive(t, f)
	ctx, n := context.Background(), 0
	add := func(k int) {
		for ; k > 0; k-- {
			if err := edge.Add(edgeMeasurement(n, core.StateSuccess)); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	cycle := func() {
		for f.Stats().Pending > 0 {
			if err := f.flushOnce(ctx); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "the last batch's acknowledgement", func() bool { return f.Stats().AckedCursor == uint64(n) })
	}
	want := func(when string, file, mem uint64) {
		t.Helper()
		got, err := loadCursor(filepath.Join(dir, "forward-cursor.json"))
		if err != nil || got != file || f.Stats().AckedCursor != mem {
			t.Fatalf("%s: file cursor %d (err %v), in-memory %d; want %d and %d", when, got, err, f.Stats().AckedCursor, file, mem)
		}
	}
	rewind := func() {
		f.sendMu.Lock()
		f.lastSave = f.lastSave.Add(-2 * time.Hour)
		f.sendMu.Unlock()
	}

	add(16)
	if err := f.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	want("after a Flush", 16, 16)
	add(24)
	cycle()
	want("three batches inside the interval", 16, 40)
	rewind()
	add(8)
	cycle()
	want("the first cycle after the interval (it saves before it sends)", 40, 48)
	add(8)
	cycle()
	rewind()
	if err := f.flushOnce(ctx); err != nil { // an idle cycle
		t.Fatal(err)
	}
	want("an idle cycle after the interval", 56, 56)
	add(8)
	cycle()
	f.Stop()
	want("after Stop", 56, 64)

	f2, err := NewForwarder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f2)
	f = f2
	awaitLive(t, f) // the catch-up re-sends 57..64
	want("after the restart's catch-up", 64, 64)
	add(8)
	cycle()
	want("a batch inside the interval again", 64, 72)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want("after Close", 72, 72)
}

// TestCatchUpKeepsOutOfOrderSetSmall bounds the acknowledgement tracker's
// out-of-order set during a 100k-record catch-up: the tail merges shards by
// position, so the contiguous prefix advances batch by batch instead of
// waiting for the last shard to be read.
func TestCatchUpKeepsOutOfOrderSetSmall(t *testing.T) {
	const total, chunk = 100_000, 1000
	wal, err := results.OpenWAL(results.WALConfig{Dir: t.TempDir(), Policy: results.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	edge := results.NewStore()
	edge.AddObserver(wal)
	batch := make([]results.Measurement, chunk)
	for base := 0; base < total; base += chunk {
		for i := range batch {
			batch[i] = edgeMeasurement(base+i, core.StateSuccess)
		}
		if _, err := edge.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	var fp atomic.Pointer[Forwarder]
	peak := 0 // guarded by sendMu: onBatch runs on the sending goroutine
	f, err := NewForwarder(ForwarderConfig{
		Client: stubClient(func() {
			if f := fp.Load(); f != nil && len(f.acks.above) > peak {
				peak = len(f.acks.above)
			}
		}),
		WAL: wal, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	fp.Store(f)
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	st := f.Stats()
	if st.AckedCursor != total || st.Dropped != 0 {
		t.Fatalf("catch-up ended at cursor %d of %d, dropped %d", st.AckedCursor, total, st.Dropped)
	}
	if bound := wal.Config().Shards * 128; peak > bound {
		t.Fatalf("out-of-order set peaked at %d entries, want <= shards x MaxBatch = %d", peak, bound)
	}
	t.Logf("out-of-order set peaked at %d entries over %d records", peak, total)
}

// BenchmarkForwarderCatchUp measures what a catch-up costs per *new* record
// over logs of different lengths: the preloaded records are acknowledged
// (the cursor file says so), each iteration appends 1024 more and drains them
// through the WAL tail against an instant-ack upstream. Flat across log sizes
// now; before the positioned tail every pass re-read the whole log.
func BenchmarkForwarderCatchUp(b *testing.B) {
	const fresh = 1024
	for _, size := range []struct {
		name string
		n    int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run("log="+size.name, func(b *testing.B) {
			dir := b.TempDir()
			wal, err := results.OpenWAL(results.WALConfig{Dir: dir, Policy: results.SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			defer wal.Close()
			n := uint64(0)
			commit := func(k int, also results.CommitStreamObserver) {
				for ; k > 0; k-- {
					n++
					m := edgeMeasurement(int(n), core.StateSuccess)
					wal.CommitStream(n, n, nil, m)
					if also != nil {
						also.CommitStream(n, n, nil, m)
					}
				}
			}
			commit(size.n, nil)
			if err := saveCursor(faultinject.OS(), filepath.Join(dir, "forward-cursor.json"), n); err != nil {
				b.Fatal(err)
			}
			f, err := NewForwarder(ForwarderConfig{Client: stubClient(nil), WAL: wal, Logf: func(string, ...any) {}})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Stop()
			ctx := context.Background()
			if err := f.Flush(ctx); err != nil { // the start-up scan past the preload
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.mu.Lock()
				f.catchingUp = true // as a spill leaves it: the tail, not the buffer, is the source
				f.mu.Unlock()
				commit(fresh, f)
				if err := f.Flush(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := f.Stats().AckedCursor; got != n {
				b.Fatalf("cursor %d after the run, want %d", got, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fresh), "ns/new-record")
		})
	}
}

// TestRingMatchesSlice holds the commit buffer's ring equal to a plain slice
// under a seeded mix of pushes, batch removals, put-backs and evictions, and
// checks a vacated slot keeps no entry (the ring must not pin shipped
// records).
func TestRingMatchesSlice(t *testing.T) {
	for _, seed := range []uint64{1, 7, 424242} {
		rng := faultinject.NewRNG(seed)
		var r ring
		var model []entry
		next := uint64(0)
		for step := 0; step < 5000; step++ {
			switch op := rng.Uint64() % 8; {
			case op < 4:
				next++
				e := entry{cseq: next}
				*r.push() = e
				model = append(model, e)
			case op < 6 && len(model) > 0:
				k := int(rng.Uint64()%uint64(len(model))) + 1
				out := make([]entry, k)
				r.shift(k, out)
				for i := range out {
					if out[i].cseq != model[i].cseq {
						t.Fatalf("seed %d step %d: shifted %d at %d, want %d", seed, step, out[i].cseq, i, model[i].cseq)
					}
				}
				if op == 5 { // a failed send: the batch goes back to the head
					r.unshift(out)
				} else {
					model = model[k:]
				}
			case op == 6 && len(model) > 0:
				k := int(rng.Uint64()%uint64(len(model))) + 1
				r.shift(k, nil)
				model = model[k:]
			}
			if r.n != len(model) {
				t.Fatalf("seed %d step %d: ring holds %d, model %d", seed, step, r.n, len(model))
			}
		}
		for i := range model {
			if r.at(i).cseq != model[i].cseq {
				t.Fatalf("seed %d: entry %d is %d, want %d", seed, i, r.at(i).cseq, model[i].cseq)
			}
		}
		for i := r.n; i < len(r.buf); i++ {
			if r.at(i).cseq != 0 {
				t.Fatalf("seed %d: vacated slot %d still holds position %d", seed, i, r.at(i).cseq)
			}
		}
	}
}
