package federation

// Tests for the forwarder's O(new records) drain: the cursor file's cadence
// and fault seam, the retention floor following the file rather than the
// in-memory cursor, the bound on the out-of-order acknowledgement set, and
// the catch-up benchmark that shows a pass no longer costs the log's length.

import (
	"bytes"
	"context"
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

// runPass runs one pass the way the background sender does — after any pass
// in progress, and without the save a Flush forces — so the start-up pass is
// done once it returns and afterwards only the test's own calls and size kicks
// drive sends.
func runPass(t *testing.T, f *Forwarder) {
	t.Helper()
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	if _, err := f.pass(context.Background()); err != nil {
		t.Fatal(err)
	}
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
		ms, err := decodeFrames(bytes.NewReader(body))
		if err != nil {
			t.Errorf("decoding forwarded batch: %v", err)
		}
		records.Add(int64(len(ms)))
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
	runPass(t, f)
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
	for f.Stats().AckedCursor < 2*ids {
		runPass(t, f)
	}
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
// a flapping upstream keep an outage backlog building and draining: file <=
// in-memory <= highest position committed, both monotone, the file always
// readable, nothing dropped.
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
		MaxBatch: 16, FlushInterval: 5 * time.Millisecond, WAL: wal,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	stop, sampled := make(chan struct{}), make(chan struct{})
	var peakLag uint64 // read after sampled is closed
	go func() {
		defer close(sampled)
		var lastFile, lastMem uint64
		for {
			// The file first: it may only trail the in-memory cursor.
			file, err := loadCursor(filepath.Join(dir, "forward-cursor.json"))
			st := f.Stats()
			mem := st.AckedCursor
			peakLag = max(peakLag, st.Lag)
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
			down.Store(true) // an outage: the backlog waits in the WAL
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
	if st := f.Stats(); st.Dropped != 0 || peakLag < 64 {
		t.Fatalf("want a run whose outages left a backlog (peak lag %d) and dropped nothing, got %+v", peakLag, st)
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
	runPass(t, f)
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
		for f.Stats().AckedCursor < uint64(n) {
			runPass(t, f)
		}
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
	runPass(t, f) // an idle cycle
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
	runPass(t, f) // the start-up pass re-sends 57..64
	want("after the restart's first pass", 64, 64)
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
	f, err := NewForwarder(ForwarderConfig{Client: stubClient(nil), WAL: wal, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	peak := f.acks.peak
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
