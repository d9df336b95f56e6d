package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encore/internal/api"
	apiclient "encore/internal/api/client"
	"encore/internal/collectserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
	"encore/internal/wire"
)

// upstream builds an aggregation-tier collection server (AllowAttributed)
// with an incremental aggregator attached.
func upstream(t testing.TB) (*results.Store, *results.Aggregator, *httptest.Server) {
	t.Helper()
	store := results.NewStore()
	agg := results.NewAggregator(results.AggregatorConfig{})
	store.AddObserver(agg)
	s := collectserver.New(store, results.NewTaskIndex(), geo.NewRegistry(1))
	s.Guard = nil
	s.AllowAttributed = true
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return store, agg, srv
}

// walEdge is an edge store with a WAL attached: the log a forwarder ships
// from.
func walEdge(t *testing.T) (*results.Store, *results.WAL) {
	t.Helper()
	wal, err := results.OpenWAL(results.WALConfig{Dir: t.TempDir(), Policy: results.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wal.Close() })
	edge := results.NewStore()
	edge.AddObserver(wal)
	return edge, wal
}

// decodeFrames decodes a record frame stream: a forwarded batch, or a
// WriteWire export.
func decodeFrames(r io.Reader) ([]results.Measurement, error) {
	fr := wire.NewFrameReader(r)
	var out []results.Measurement
	for {
		p, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		_, _, rec, err := wire.DecodeRecord(p)
		if err != nil {
			return out, err
		}
		out = append(out, results.Measurement(rec))
	}
}

func edgeMeasurement(i int, state core.State) results.Measurement {
	return results.Measurement{
		MeasurementID: fmt.Sprintf("edge-%d", i),
		PatternKey:    "domain:youtube.com",
		TargetURL:     "http://youtube.com/favicon.ico",
		TaskType:      core.TaskImage,
		State:         state,
		ClientIP:      "203.0.113.9",
		Region:        "PK",
		Browser:       core.BrowserChrome,
		Received:      time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
	}
}

// TestForwarderStreamsCommits attaches a forwarder to an edge store as a
// commit observer and checks every committed record (inserts and in-place
// upgrades) reaches the upstream store and its aggregation tier.
func TestForwarderStreamsCommits(t *testing.T) {
	upStore, upAgg, upSrv := upstream(t)
	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{Upstream: upSrv.URL, MaxBatch: 8, FlushInterval: 5 * time.Millisecond, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	const n = 50
	for i := 0; i < n; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateInit)); err != nil {
			t.Fatal(err)
		}
	}
	// Upgrade half in place: the upgrade commit must forward too.
	for i := 0; i < n/2; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateFailure)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if upStore.Len() != n {
		t.Fatalf("upstream has %d records, want %d", upStore.Len(), n)
	}
	for i := 0; i < n; i++ {
		want := core.StateInit
		if i < n/2 {
			want = core.StateFailure
		}
		m, ok := upStore.Get(fmt.Sprintf("edge-%d", i))
		if !ok || m.State != want {
			t.Fatalf("upstream edge-%d = %+v, want state %s", i, m, want)
		}
	}
	st := f.Stats()
	if st.Observed != n+n/2 || st.Forwarded != n+n/2 || st.Rejected != 0 || st.Dropped != 0 || st.Pending != 0 {
		t.Fatalf("stats %+v", st)
	}
	// The upstream's incremental aggregation tier saw every transition.
	groups := upAgg.Groups()
	if len(groups) != 1 {
		t.Fatalf("upstream aggregator groups: %d", len(groups))
	}
	g := groups[0]
	if g.Total != n || g.Failures != n/2 || g.InitOnly != n-n/2 {
		t.Fatalf("upstream group %+v", g)
	}
}

// TestForwarderRidesOutUpstreamOutage kills the upstream listener
// mid-stream and restarts it on the same address: records committed during
// the outage must be delivered after recovery, none lost.
func TestForwarderRidesOutUpstreamOutage(t *testing.T) {
	upStore := results.NewStore()
	up := collectserver.New(upStore, results.NewTaskIndex(), geo.NewRegistry(1))
	up.Guard = nil
	up.AllowAttributed = true

	var down atomic.Bool
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "upstream down", http.StatusServiceUnavailable)
			return
		}
		up.ServeHTTP(w, r)
	}))
	defer gate.Close()

	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{
		Client:        apiclient.NewWithConfig(gate.URL, apiclient.Config{Retries: 2, RetryBackoff: time.Millisecond}),
		MaxBatch:      4,
		FlushInterval: 2 * time.Millisecond,
		WAL:           wal,
	})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)

	for i := 0; i < 10; i++ {
		_ = edge.Add(edgeMeasurement(i, core.StateSuccess))
	}
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	down.Store(true)
	for i := 10; i < 30; i++ {
		_ = edge.Add(edgeMeasurement(i, core.StateSuccess))
	}
	// Give the sender a chance to fail against the dead upstream.
	deadline := time.Now().Add(2 * time.Second)
	for f.Stats().LastError == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if f.Stats().LastError == nil {
		t.Fatal("forwarder never observed the outage")
	}
	if upStore.Len() != 10 {
		t.Fatalf("upstream gained records while down: %d", upStore.Len())
	}

	down.Store(false)
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if upStore.Len() != 30 {
		t.Fatalf("upstream has %d after recovery, want 30", upStore.Len())
	}
	st := f.Stats()
	if st.Forwarded != 30 || st.Dropped != 0 || st.Pending != 0 || st.LastError != nil {
		t.Fatalf("stats after recovery %+v", st)
	}
}

// TestForwarderConcurrentClose races several Close calls: the first drains,
// the rest return without a double-close panic.
func TestForwarderConcurrentClose(t *testing.T) {
	upStore, _, upSrv := upstream(t)
	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{Upstream: upSrv.URL, FlushInterval: time.Millisecond, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	for i := 0; i < 10; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = f.Close()
		}()
	}
	wg.Wait()
	if upStore.Len() != 10 {
		t.Fatalf("upstream has %d after concurrent Close, want 10", upStore.Len())
	}
}

// TestForwarderConcurrentCommits drives commits from many goroutines (the
// sharded store calls Commit from whichever shard lock serialized each
// mutation); run under -race by scripts/ci.sh.
func TestForwarderConcurrentCommits(t *testing.T) {
	upStore, _, upSrv := upstream(t)
	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{Upstream: upSrv.URL, MaxBatch: 32, FlushInterval: 2 * time.Millisecond, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)

	var wg sync.WaitGroup
	const workers, perWorker = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m := edgeMeasurement(w*perWorker+i, core.StateSuccess)
				if err := edge.Add(m); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if want := workers * perWorker; upStore.Len() != want {
		t.Fatalf("upstream has %d, want %d", upStore.Len(), want)
	}
}

// TestForwarderDeadLettersConflictingResults: the upstream already holds a
// success, forwarded by another edge, for every even ID this edge measured as
// a failure. The upstream's store keeps the first terminal state and refuses
// each conflicting failure at its frame index; the forwarder dead-letters
// exactly those records and still ships everything past them.
func TestForwarderDeadLettersConflictingResults(t *testing.T) {
	upStore, upAgg, upSrv := upstream(t)
	const n = 20
	for i := 0; i < n; i += 2 {
		if err := upStore.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	edge, wal := walEdge(t)
	for i := 0; i < n; i++ {
		for _, state := range []core.State{core.StateInit, core.StateFailure} {
			if err := edge.Add(edgeMeasurement(i, state)); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := NewForwarder(ForwarderConfig{Upstream: upSrv.URL, MaxBatch: 6, FlushInterval: time.Hour, WAL: wal, Logf: quiet})
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
	if f.Lag() != 0 || st.Forwarded+st.Rejected != 2*n || st.Rejected != n/2 {
		t.Fatalf("lag %d, stats %+v: want every record shipped and %d refused", f.Lag(), st, n/2)
	}
	if got := st.RejectedByCode[api.CodeConflictingResult]; got != n/2 || len(st.RejectedByCode) != 1 {
		t.Fatalf("RejectedByCode = %v, want %d %s", st.RejectedByCode, n/2, api.CodeConflictingResult)
	}
	var dead []string
	for _, dl := range f.DeadLetters() {
		if dl.Code != api.CodeConflictingResult || dl.Measurement.State != core.StateFailure {
			t.Fatalf("dead letter %+v", dl)
		}
		dead = append(dead, dl.Measurement.MeasurementID)
	}
	var want []string
	for i := 0; i < n; i += 2 {
		want = append(want, fmt.Sprintf("edge-%d", i))
	}
	if !slices.Equal(dead, want) {
		t.Fatalf("dead letters name %v, want %v", dead, want)
	}
	for i := 0; i < n; i++ {
		want := []core.State{core.StateSuccess, core.StateFailure}[i%2]
		if m, _ := upStore.Get(fmt.Sprintf("edge-%d", i)); m.State != want {
			t.Fatalf("upstream edge-%d is %s, want %s", i, m.State, want)
		}
	}
	if got, want := upAgg.Groups(), results.Aggregate(upStore.All()); !reflect.DeepEqual(got, want) {
		t.Fatalf("upstream aggregator %+v, store aggregate %+v", got, want)
	}
}
