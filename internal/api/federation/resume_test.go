package federation

// Tests for the WAL-resumable half of the forwarder: the ack tracker and
// cursor file underneath it, an outage backlog waiting in the WAL, resuming from
// the persisted cursor after a crash (Stop), dead-lettering of per-record
// rejections, and the upstream load signal widening the flush window before
// anything is dropped or dead-lettered.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

func TestAckTrackerContiguousAdvance(t *testing.T) {
	tr := newAckTracker(0)
	if tr.cursor() != 0 {
		t.Fatalf("fresh tracker cursor = %d, want 0", tr.cursor())
	}
	// Out-of-order acks above the low-water mark must not move the cursor.
	if tr.ack(3) {
		t.Fatal("ack(3) advanced the cursor past unacked 1,2")
	}
	if tr.ack(2) {
		t.Fatal("ack(2) advanced the cursor past unacked 1")
	}
	if tr.cursor() != 0 {
		t.Fatalf("cursor = %d after acks {2,3}, want 0", tr.cursor())
	}
	if !tr.acked(3) || tr.acked(1) {
		t.Fatal("acked() wrong: want 3 acked, 1 not")
	}
	// Acking the gap releases the whole contiguous run.
	if !tr.ack(1) {
		t.Fatal("ack(1) did not advance")
	}
	if tr.cursor() != 3 {
		t.Fatalf("cursor = %d after ack(1), want 3", tr.cursor())
	}
	// Duplicate and below-cursor acks are no-ops.
	if tr.ack(2) || tr.ack(3) {
		t.Fatal("re-ack below cursor reported an advance")
	}
	if !tr.ack(4) || tr.cursor() != 4 {
		t.Fatalf("ack(4): cursor = %d, want 4", tr.cursor())
	}
}

func TestCursorFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forward-cursor.json")
	// Missing file is position zero — the cold-start value.
	got, err := loadCursor(faultinject.OS(), path)
	if err != nil || got != 0 {
		t.Fatalf("loadCursor(missing) = %d, %v; want 0, nil", got, err)
	}
	if err := saveCursor(faultinject.OS(), path, 42); err != nil {
		t.Fatal(err)
	}
	if got, err = loadCursor(faultinject.OS(), path); err != nil || got != 42 {
		t.Fatalf("loadCursor = %d, %v; want 42, nil", got, err)
	}
	// Overwrite is atomic (tmp+rename): no tmp file left behind.
	if err := saveCursor(faultinject.OS(), path, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	if got, _ = loadCursor(faultinject.OS(), path); got != 99 {
		t.Fatalf("loadCursor after overwrite = %d, want 99", got)
	}
	// Corrupt cursor files fail loudly rather than silently restarting at 0
	// (which would be safe) or at garbage (which would not).
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCursor(faultinject.OS(), path); err == nil {
		t.Fatal("loadCursor(corrupt) succeeded, want error")
	}
}

// TestForwarderReadsCursorThroughWALFS checks that the cursor is read
// through the WAL's filesystem, the seam it is saved through: a forwarder
// over a crashed disk must fail to start instead of reading around the fault.
func TestForwarderReadsCursorThroughWALFS(t *testing.T) {
	ffs := faultinject.NewFaultFS()
	wal, err := results.OpenWAL(results.WALConfig{Dir: t.TempDir(), Policy: results.SyncNone, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if _, err := ffs.Crash(0); err != nil {
		t.Fatal(err)
	}
	f, err := NewForwarder(ForwarderConfig{Client: stubClient(nil), WAL: wal})
	if !errors.Is(err, faultinject.ErrCrashed) {
		if f != nil {
			f.Stop()
		}
		t.Fatalf("NewForwarder over a crashed WAL filesystem: err = %v, want %v", err, faultinject.ErrCrashed)
	}
}

// openTestWAL opens a SyncAlways WAL in dir for an edge store.
func openTestWAL(t *testing.T, dir string) *results.WAL {
	t.Helper()
	wal, err := results.OpenWAL(results.WALConfig{Dir: dir, Policy: results.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return wal
}

// gatedUpstream wraps an upstream collection server in a gate that answers
// 503 while down is set, simulating an upstream outage the forwarder must
// ride out.
func gatedUpstream(t *testing.T) (*results.Store, *atomic.Bool, *httptest.Server) {
	t.Helper()
	upStore, _, upSrv := upstream(t)
	var down atomic.Bool
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "upstream down", http.StatusServiceUnavailable)
			return
		}
		upSrv.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(gate.Close)
	return upStore, &down, gate
}

// TestForwarderResumesFromCursorAfterCrash is the package-level half of the
// kill-and-restart story: an edge ingests under a WAL, the upstream goes
// down, the tiny buffer spills to the WAL tail, the edge "crashes" (Stop: no
// drain, no cursor advance), and a fresh forwarder over the recovered store
// resumes from the persisted cursor — the upstream ends bit-for-bit complete,
// with zero drops on either run.
func TestForwarderResumesFromCursorAfterCrash(t *testing.T) {
	dir := t.TempDir()
	upStore, down, gate := gatedUpstream(t)

	wal := openTestWAL(t, dir)
	edge := results.NewStore()
	edge.AddObserver(wal) // WAL first: commits are durable before the forwarder sees them
	f, err := NewForwarder(ForwarderConfig{
		Client: apiclient.NewWithConfig(gate.URL, apiclient.Config{
			Retries: 1, RetryBackoff: time.Millisecond,
		}),
		MaxBatch:      8,
		FlushInterval: 2 * time.Millisecond,
		MaxBuffer:     8, // force a spill during the outage
		WAL:           wal,
	})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)

	// Phase 1: upstream healthy; some records ship and advance the cursor.
	const phase1, phase2 = 10, 40
	for i := 0; i < phase1; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c := f.Stats().AckedCursor; c == 0 {
		t.Fatal("cursor did not advance after a healthy flush")
	}

	// Phase 2: upstream down; the 8-slot buffer must spill to the WAL tail
	// rather than drop.
	down.Store(true)
	for i := phase1; i < phase1+phase2; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Spilled == 0 {
		t.Fatalf("expected a spill with MaxBuffer=8 and %d records buffered during the outage; stats %+v", phase2, st)
	}
	if st.Dropped != 0 {
		t.Fatalf("WAL-backed forwarder dropped %d records", st.Dropped)
	}

	// Crash: no drain, no further cursor writes. Close the WAL like a dead
	// process's file descriptors.
	f.Stop()
	cursorAtCrash := f.Stats().AckedCursor
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if upStore.Len() >= phase1+phase2 {
		t.Fatalf("upstream already has everything (%d); outage did not bite", upStore.Len())
	}

	// Restart: recover the store from the WAL, reopen the log, bring the
	// upstream back, and let a fresh forwarder resume from the cursor file.
	recovered, _, err := results.OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Len() != phase1+phase2 {
		t.Fatalf("recovered store has %d records, want %d", recovered.Len(), phase1+phase2)
	}
	// The restarted forwarder resumes from what the crash left on disk. Read
	// the file, not f2's stats: NewForwarder kicks the start-up catch-up, so
	// its background sender may already have advanced the in-memory cursor.
	persisted, err := loadCursor(faultinject.OS(), filepath.Join(dir, "forward-cursor.json"))
	if err != nil {
		t.Fatal(err)
	}
	if persisted != cursorAtCrash {
		t.Fatalf("persisted cursor is %d, want %d", persisted, cursorAtCrash)
	}
	wal2 := openTestWAL(t, dir)
	defer wal2.Close()
	recovered.AddObserver(wal2)
	down.Store(false)
	f2, err := NewForwarder(ForwarderConfig{
		Client: apiclient.NewWithConfig(gate.URL, apiclient.Config{
			Retries: 1, RetryBackoff: time.Millisecond,
		}),
		MaxBatch:      8,
		FlushInterval: 2 * time.Millisecond,
		WAL:           wal2,
	})
	if err != nil {
		t.Fatal(err)
	}
	recovered.AddObserver(f2)
	if err := f2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// New traffic after the restart must keep flowing too: recovery restored
	// the commit counter, so fresh commits get unseen stream positions.
	for i := phase1 + phase2; i < phase1+phase2+5; i++ {
		if err := recovered.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}

	if upStore.Len() != phase1+phase2+5 {
		t.Fatalf("upstream has %d records after resume, want %d", upStore.Len(), phase1+phase2+5)
	}
	if st := f2.Stats(); st.Dropped != 0 {
		t.Fatalf("resumed forwarder dropped %d records", st.Dropped)
	}
}

// TestForwarderDeadLettersRejections checks the 4xx path is no longer
// swallowed silently: per-record rejections are counted by code, parked in
// the dead-letter ring, logged once per batch, and acknowledged — never
// re-queued into a poison loop.
func TestForwarderDeadLettersRejections(t *testing.T) {
	// An upstream that rejects index 0 of every batch and accepts the rest.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, err := decodeFrames(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := api.BatchSubmitResponse{Accepted: len(ms) - 1}
		resp.Rejected = append(resp.Rejected, api.RejectedSubmission{
			Index:         0,
			MeasurementID: ms[0].MeasurementID,
			Code:          api.CodeInvalidSubmission,
			Message:       "synthetic rejection",
		})
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer srv.Close()

	var logMu sync.Mutex
	var logged int
	// Committed before the forwarder starts, so its first pass ships all
	// three in one batch.
	edge, wal := walEdge(t)
	for i := 0; i < 3; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := NewForwarder(ForwarderConfig{
		Upstream:      srv.URL,
		MaxBatch:      16,
		FlushInterval: time.Hour, // flush explicitly
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logged++
			logMu.Unlock()
		},
		WAL: wal,
	})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st := f.Stats()
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	if st.RejectedByCode[api.CodeInvalidSubmission] != 1 {
		t.Fatalf("RejectedByCode = %v, want 1 %s", st.RejectedByCode, api.CodeInvalidSubmission)
	}
	if st.Forwarded != 2 {
		t.Fatalf("Forwarded = %d, want 2", st.Forwarded)
	}
	if st.Pending != 0 {
		t.Fatalf("Pending = %d; rejected record was re-queued", st.Pending)
	}
	dls := f.DeadLetters()
	if len(dls) != 1 {
		t.Fatalf("DeadLetters() = %d entries, want 1", len(dls))
	}
	if dls[0].Measurement.MeasurementID != "edge-0" || dls[0].Code != api.CodeInvalidSubmission {
		t.Fatalf("dead letter = %+v, want edge-0/%s", dls[0], api.CodeInvalidSubmission)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if logged != 1 {
		t.Fatalf("rejection logged %d times, want once per batch", logged)
	}
}

// TestForwarderHonorsLoadSignal checks the acceptance criterion that
// backpressure is observable: a loaded upstream's suggested flush interval
// widens the forwarder's window, with nothing evicted or dead-lettered.
func TestForwarderHonorsLoadSignal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, err := decodeFrames(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := api.BatchSubmitResponse{
			Accepted: len(ms),
			Load: &api.LoadSignal{
				QueueDepth:           900,
				QueueCapacity:        1000,
				SuggestedFlushMillis: 1500,
			},
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer srv.Close()

	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{
		Upstream:         srv.URL,
		FlushInterval:    5 * time.Millisecond,
		MaxFlushInterval: 2 * time.Second,
		WAL:              wal,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	edge.AddObserver(f)
	if err := edge.Add(edgeMeasurement(0, core.StateSuccess)); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if want := 1500 * time.Millisecond; st.FlushInterval != want {
		t.Fatalf("FlushInterval = %v after load advice, want %v", st.FlushInterval, want)
	}
	if st.Dropped != 0 || st.Rejected != 0 {
		t.Fatalf("load advice caused loss: %+v", st)
	}
	// A later unloaded response snaps the window back to the floor.
	// (Served by pointing the same forwarder at a response without advice.)
}

// TestForwarderWidensWindowOnFailure checks a failing upstream widens the
// flush window (bounded by MaxFlushInterval) instead of retrying in
// lockstep.
func TestForwarderWidensWindowOnFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	floor := time.Millisecond
	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{
		Client: apiclient.NewWithConfig(srv.URL, apiclient.Config{
			Retries: 1, RetryBackoff: time.Microsecond,
		}),
		FlushInterval:    floor,
		MaxFlushInterval: 100 * time.Millisecond,
		WAL:              wal,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	edge.AddObserver(f)
	if err := edge.Add(edgeMeasurement(0, core.StateSuccess)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := f.Stats(); st.FlushInterval > floor && st.LastError != nil {
			if st.FlushInterval > 100*time.Millisecond {
				t.Fatalf("FlushInterval %v exceeded MaxFlushInterval", st.FlushInterval)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("flush window never widened; stats %+v", f.Stats())
}

// TestFederationSoak hammers a WAL-backed forwarder with concurrent commits
// while the upstream flaps, then verifies completeness. It exists to run
// under -race in CI (scripts/ci.sh) as much as to check the counts.
func TestFederationSoak(t *testing.T) {
	dir := t.TempDir()
	upStore, down, gate := gatedUpstream(t)
	wal := openTestWAL(t, dir)
	defer wal.Close()
	edge := results.NewStore()
	edge.AddObserver(wal)
	f, err := NewForwarder(ForwarderConfig{
		Client: apiclient.NewWithConfig(gate.URL, apiclient.Config{
			Retries: 1, RetryBackoff: time.Millisecond,
		}),
		MaxBatch:      16,
		FlushInterval: time.Millisecond,
		MaxBuffer:     32,
		WAL:           wal,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)

	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	stopFlap := make(chan struct{})
	wg.Add(1)
	go func() { // upstream flapper
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopFlap:
				down.Store(false)
				return
			case <-time.After(3 * time.Millisecond):
				down.Store(i%2 == 0)
			}
		}
	}()
	var cwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cwg.Add(1)
		go func(w int) {
			defer cwg.Done()
			for i := 0; i < perWorker; i++ {
				if err := edge.Add(edgeMeasurement(w*perWorker+i, core.StateSuccess)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	cwg.Wait()
	close(stopFlap)
	wg.Wait()
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	const total = workers * perWorker
	if upStore.Len() != total {
		t.Fatalf("upstream has %d records after soak, want %d", upStore.Len(), total)
	}
	if st := f.Stats(); st.Dropped != 0 {
		t.Fatalf("soak dropped %d records; stats %+v", st.Dropped, st)
	}
}
