package federation

// Tests for the forwarder's two POSTs in flight: an idle backlog drains in one
// pass, no measurement ID is in two requests at once (so the upstream applies
// each ID's commits in edge order), and a crash with one POST acknowledged and
// the other hanging leaves a cursor the restart can trust. The benchmark
// beside them times a drain against a real upstream.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/core"
	"encore/internal/faultinject"
	"encore/internal/results"
	"encore/internal/wire"
)

func quiet(string, ...any) {}

// TestIdleBacklogDrainsPromptly commits a backlog while the upstream refuses,
// then restores it and commits nothing more: one pass must ship the whole
// backlog, rather than one batch per flush window.
func TestIdleBacklogDrainsPromptly(t *testing.T) {
	const backlog = 10_000
	upStore, down, gate := gatedUpstream(t)
	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{
		Client:        apiclient.NewWithConfig(gate.URL, apiclient.Config{Retries: 1, RetryBackoff: time.Millisecond}),
		FlushInterval: 50 * time.Millisecond, MaxFlushInterval: 100 * time.Millisecond,
		WAL: wal, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	edge.AddObserver(f)

	down.Store(true)
	batch := make([]results.Measurement, 500)
	for base := 0; base < backlog; base += len(batch) {
		for i := range batch {
			batch[i] = edgeMeasurement(base+i, core.StateSuccess)
		}
		if _, err := edge.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the outage to bite", func() bool { return f.Stats().LastError != nil })
	down.Store(false)
	start := time.Now()
	waitFor(t, "the backlog to drain", func() bool { return f.Stats().AckedCursor == backlog })
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("an idle %d-record backlog took %v to drain, want < 1s", backlog, took)
	}
	if upStore.Len() != backlog {
		t.Fatalf("upstream has %d of %d records", upStore.Len(), backlog)
	}
}

// TestPerIDOrderWithPOSTsInFlight commits repeated inits and duplicate
// same-outcome terminals — in-place replacements, so applying two commits of
// one ID out of order changes what the upstream stores — against an upstream
// that delays every other POST. No ID may be in two POSTs at once, two POSTs
// must really overlap, and the upstream must end holding the edge's records.
func TestPerIDOrderWithPOSTsInFlight(t *testing.T) {
	const ids, versions = 200, 4
	upStore, _, upSrv := upstream(t)
	var mu sync.Mutex
	inFlight := make(map[string]bool)
	posts, concurrent, peak := 0, 0, 0
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		ms, err := decodeFrames(bytes.NewReader(body))
		if err != nil {
			t.Errorf("decoding forwarded batch: %v", err)
		}
		held := make(map[string]bool)
		mu.Lock()
		posts++
		delay := posts%2 == 0
		concurrent++
		peak = max(peak, concurrent)
		for _, m := range ms {
			if inFlight[m.MeasurementID] && !held[m.MeasurementID] {
				t.Errorf("%s is in two POSTs at once", m.MeasurementID)
			}
			inFlight[m.MeasurementID], held[m.MeasurementID] = true, true
		}
		mu.Unlock()
		if delay {
			time.Sleep(20 * time.Millisecond)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		upSrv.Config.Handler.ServeHTTP(w, r)
		mu.Lock()
		concurrent--
		for id := range held {
			delete(inFlight, id)
		}
		mu.Unlock()
	}))
	defer gate.Close()

	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{
		Client:   apiclient.NewWithConfig(gate.URL, apiclient.Config{Retries: 1, RetryBackoff: time.Millisecond}),
		MaxBatch: 16, FlushInterval: 2 * time.Millisecond, WAL: wal,
	})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	// Each ID goes init, init, success, success, each commit with a new
	// duration, in a seeded interleaving across IDs.
	rng := faultinject.NewRNG(1)
	next := make([]int, ids)
	for left := ids * versions; left > 0; left-- {
		i := int(rng.Uint64() % ids)
		for next[i] == versions {
			i = (i + 1) % ids
		}
		state := core.StateInit
		if next[i] >= versions/2 {
			state = core.StateSuccess
		}
		m := edgeMeasurement(i, state)
		m.DurationMillis = float64(next[i] + 1)
		next[i]++
		if err := edge.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if peak < 2 {
		t.Fatalf("at most %d POST was in flight at once, want 2", peak)
	}
	if got, want := exportSet(t, upStore), exportSet(t, edge); !reflect.DeepEqual(got, want) {
		t.Fatalf("upstream export (%d records) differs from the edge's (%d)", len(got), len(want))
	}
}

// exportSet is a store's WriteWire export as a set of record payloads, with
// the positions (which differ between stores) zeroed.
func exportSet(t *testing.T, s *results.Store) map[string]bool {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteWire(&buf); err != nil {
		t.Fatal(err)
	}
	ms, err := decodeFrames(&buf)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool)
	for i := range ms {
		b, err := wire.AppendRecord(nil, 0, 0, (*wire.Record)(&ms[i]))
		if err != nil {
			t.Fatal(err)
		}
		set[string(b)] = true
	}
	return set
}

// TestStopWithPOSTsInFlight crashes the forwarder (Stop) while one of its two
// POSTs has been acknowledged and the other hangs: once Stop has begun, the
// hanging one's acknowledgement must not count, neither cursor may pass a
// position of its batch, and a restarted forwarder must complete the
// upstream.
func TestStopWithPOSTsInFlight(t *testing.T) {
	const records = 64
	upStore, _, upSrv := upstream(t)
	var mu sync.Mutex
	posts, served := 0, 0
	overlapped := false
	hung := uint64(0) // lowest position of the hanging POST
	second, release := make(chan struct{}), make(chan struct{})
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		posts++
		n := posts
		mu.Unlock()
		switch n {
		case 1: // held until the second POST arrives, so the two overlap
			select {
			case <-second:
				mu.Lock()
				overlapped = true
				mu.Unlock()
			case <-time.After(2 * time.Second):
			}
		case 2:
			lowest := ^uint64(0)
			for fr := wire.NewFrameReader(bytes.NewReader(body)); ; {
				p, err := fr.Next()
				if err != nil {
					break
				}
				c, _ := wire.PeekCommitSeq(p)
				lowest = min(lowest, c)
			}
			mu.Lock()
			hung = lowest
			mu.Unlock()
			close(second)
			<-release
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		upSrv.Config.Handler.ServeHTTP(w, r)
		mu.Lock()
		served++
		mu.Unlock()
	}))
	defer gate.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()

	// The records are in the log before the forwarder starts, so its first
	// pass fills both lanes at once.
	edge, wal := walEdge(t)
	for i := 0; i < records; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := ForwarderConfig{
		Client:   apiclient.NewWithConfig(gate.URL, apiclient.Config{Retries: 1, RetryBackoff: time.Millisecond}),
		MaxBatch: 16, FlushInterval: time.Millisecond, WAL: wal, Logf: quiet,
	}
	f, err := NewForwarder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	waitFor(t, "one POST served while the other hangs", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return served >= 1 && hung != 0
	})
	mu.Lock()
	if !overlapped {
		mu.Unlock()
		t.Fatal("the two POSTs were never in flight together")
	}
	lowest := hung
	mu.Unlock()
	stopped := make(chan struct{})
	go func() {
		f.Stop()
		close(stopped)
	}()
	waitFor(t, "Stop to begin", f.closed.Load)
	unblock() // the upstream now takes the hanging batch; the forwarder must not count it
	<-stopped

	cursorPath := filepath.Join(wal.Dir(), "forward-cursor.json")
	file, err := loadCursor(cursorPath)
	if err != nil {
		t.Fatal(err)
	}
	if mem := f.Stats().AckedCursor; file > mem || mem >= lowest {
		t.Fatalf("after Stop: file cursor %d, in-memory %d; want file <= in-memory < %d, the hanging batch's first position", file, mem, lowest)
	}

	f2, err := NewForwarder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f2)
	if err := f2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := loadCursor(cursorPath); got != records {
		t.Fatalf("cursor file holds %d after the restart, want %d", got, records)
	}
	if got, want := exportSet(t, upStore), exportSet(t, edge); !reflect.DeepEqual(got, want) {
		t.Fatalf("upstream holds %d records after the restart, the edge %d", len(got), len(want))
	}
}

// BenchmarkForwarderDrain times shipping an already-committed WAL backlog to
// a real collection server upstream over loopback HTTP — what the two POSTs in
// flight overlap — and reports it per record.
func BenchmarkForwarderDrain(b *testing.B) {
	for _, n := range []int{16 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("backlog=%dk", n>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wal, err := results.OpenWAL(results.WALConfig{Dir: b.TempDir(), Policy: results.SyncNone})
				if err != nil {
					b.Fatal(err)
				}
				edge := results.NewStore()
				edge.AddObserver(wal)
				batch := make([]results.Measurement, 1024)
				for base := 0; base < n; base += len(batch) {
					for j := range batch {
						batch[j] = edgeMeasurement(base+j, core.StateSuccess)
					}
					if _, err := edge.AddBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				upStore, _, upSrv := upstream(b)
				b.StartTimer()
				f, err := NewForwarder(ForwarderConfig{Upstream: upSrv.URL, WAL: wal, Logf: quiet})
				if err != nil {
					b.Fatal(err)
				}
				err = f.Flush(context.Background())
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if upStore.Len() != n {
					b.Fatalf("upstream has %d of %d records", upStore.Len(), n)
				}
				f.Stop()
				upSrv.Close()
				if err := wal.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
