package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"encore/internal/api"
	"encore/internal/collectserver"
	"encore/internal/coordserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
)

// testCollector builds a collection server with n registered tasks, no abuse
// guard, and an httptest listener.
func testCollector(t *testing.T, n int) (*collectserver.Server, *results.Store, *httptest.Server) {
	t.Helper()
	store := results.NewStore()
	index := results.NewTaskIndex()
	g := geo.NewRegistry(1)
	s := collectserver.New(store, index, g)
	s.Guard = nil
	for i := 0; i < n; i++ {
		index.Register(core.Task{
			MeasurementID: fmt.Sprintf("m-%d", i),
			Type:          core.TaskImage,
			TargetURL:     "http://example.com/favicon.ico",
			PatternKey:    "domain:example.com",
		})
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, store, srv
}

func TestSubmitBeaconAndBatch(t *testing.T) {
	_, store, srv := testCollector(t, 8)
	c := New(srv.URL)
	ctx := context.Background()

	if err := c.SubmitBeacon(ctx, "m-0", "success", 120, &ClientMeta{
		IP: "198.51.100.7", UserAgent: "Mozilla/5.0 Chrome/39.0",
	}); err != nil {
		t.Fatal(err)
	}
	m, ok := store.Get("m-0")
	if !ok || m.Browser != core.BrowserChrome {
		t.Fatalf("beacon submission not stored/attributed: %+v", m)
	}

	resp, err := c.SubmitBatch(ctx, []api.SubmitRequest{
		{MeasurementID: "m-1", Result: "success", ElapsedMillis: 10},
		{MeasurementID: "m-2", Result: "failure", ElapsedMillis: 20},
		{MeasurementID: "nope", Result: "success"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || len(resp.Rejected) != 1 || resp.Rejected[0].Code != api.CodeUnknownMeasurement {
		t.Fatalf("batch response %+v", resp)
	}
	if store.Len() != 3 {
		t.Fatalf("store has %d, want 3", store.Len())
	}

	// Typed error surfaces from the single-submission helper.
	err = c.Submit(ctx, api.SubmitRequest{MeasurementID: "unregistered", Result: "success"}, nil)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnknownMeasurement {
		t.Fatalf("Submit error = %v, want typed unknown_measurement", err)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Measurements != 3 {
		t.Fatalf("health %+v", h)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	backend, _, _ := testCollector(t, 4)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "upstream hiccup", http.StatusServiceUnavailable)
			return
		}
		backend.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	c := NewWithConfig(flaky.URL, Config{Retries: 3, RetryBackoff: time.Millisecond})
	if err := c.SubmitBeacon(context.Background(), "m-0", "success", 1, nil); err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}

	// Exhausted retries surface the last error.
	calls.Store(-100)
	err := c.SubmitBeacon(context.Background(), "m-0", "success", 1, nil)
	if err == nil {
		t.Fatal("expected failure after exhausted retries")
	}
	if got := calls.Load(); got != -97 {
		t.Fatalf("server saw %d attempts after reset, want 3", got+100)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	// 4xx responses — including 429, the abuse guard's verdict, which
	// retrying would only amplify — surface immediately, untried.
	for _, tc := range []struct {
		status int
		code   string
	}{
		{http.StatusNotFound, api.CodeUnknownMeasurement},
		{http.StatusTooManyRequests, api.CodeRateLimited},
	} {
		var calls atomic.Int64
		counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			http.Error(w, tc.code, tc.status)
		}))
		c := NewWithConfig(counting.URL, Config{Retries: 5, RetryBackoff: time.Millisecond})
		err := c.SubmitBeacon(context.Background(), "whatever", "success", 1, nil)
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != tc.code {
			t.Fatalf("status %d: err=%v, want typed %s", tc.status, err, tc.code)
		}
		if calls.Load() != 1 {
			t.Fatalf("status %d retried %d times", tc.status, calls.Load())
		}
		counting.Close()
	}
}

func TestClientGzipsLargeBatches(t *testing.T) {
	var sawGzip atomic.Bool
	backend, store, _ := testCollector(t, 512)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Encoding") == "gzip" {
			sawGzip.Store(true)
		}
		backend.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	c := NewWithConfig(proxy.URL, Config{GzipThreshold: 1024})
	subs := make([]api.SubmitRequest, 512)
	for i := range subs {
		subs[i] = api.SubmitRequest{MeasurementID: fmt.Sprintf("m-%d", i), Result: "success"}
	}
	resp, err := c.SubmitBatch(context.Background(), subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 512 {
		t.Fatalf("accepted %d", resp.Accepted)
	}
	if !sawGzip.Load() {
		t.Fatal("large batch was not gzip-compressed")
	}
	if store.Len() != 512 {
		t.Fatalf("store has %d", store.Len())
	}

	// Compressor and decompressor state is recycled, not rebuilt per body: a
	// fresh gzip.Writer alone allocates ~800 KB. (Under the race detector
	// sync.Pool drops a quarter of its Puts on purpose, so the bound only
	// holds without it.)
	if raceEnabled {
		return
	}
	const posts = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < posts; i++ {
		if _, err := c.SubmitBatch(context.Background(), subs[:64], nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perPost := (after.TotalAlloc - before.TotalAlloc) / posts; perPost >= 300<<10 {
		t.Fatalf("a gzipped 64-submission POST allocates %d KB, want < 300 KB", perPost>>10)
	}
}

func TestTasksEndToEnd(t *testing.T) {
	ts := pipeline.NewTaskSet()
	ts.Add(pipeline.Candidate{
		PatternKey: "domain:youtube.com",
		Type:       core.TaskImage,
		TargetURL:  "http://youtube.com/favicon.ico",
		Strict:     true,
	})
	index := results.NewTaskIndex()
	coord, err := coordserver.Open(coordserver.Config{Tasks: ts, Scheduler: scheduler.DefaultConfig(), Index: index,
		Geo: geo.NewRegistry(2), Snippet: core.SnippetOptions{
			CoordinatorURL: "//coordinator.example.org",
			CollectorURL:   "//collector.example.org",
		}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	c := New(srv.URL)
	resp, err := c.Tasks(context.Background(), api.TaskRequest{DwellSeconds: 60, IncludeScript: true}, &ClientMeta{
		UserAgent: "Mozilla/5.0 Chrome/39.0 Safari/537.36",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tasks) == 0 {
		t.Fatal("no tasks")
	}
	for _, task := range resp.Tasks {
		if task.Script == "" || task.PatternKey != "domain:youtube.com" {
			t.Fatalf("task %+v", task)
		}
		if _, ok := index.Lookup(task.MeasurementID); !ok {
			t.Fatalf("task %s not registered", task.MeasurementID)
		}
	}
}

func TestMeasurementsStream(t *testing.T) {
	_, store, srv := testCollector(t, 4)
	c := New(srv.URL)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := c.SubmitBeacon(ctx, fmt.Sprintf("m-%d", i), "success", float64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	var streamed []results.Measurement
	if err := c.Measurements(ctx, func(m results.Measurement) error {
		streamed = append(streamed, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != store.Len() {
		t.Fatalf("streamed %d, store has %d", len(streamed), store.Len())
	}
	all := store.All()
	for i := range all {
		// The JSON round trip drops the monotonic clock reading; compare
		// wall-clock instants and strip Received for the struct equality.
		if !streamed[i].Received.Equal(all[i].Received) {
			t.Fatalf("record %d Received diverged: %v vs %v", i, streamed[i].Received, all[i].Received)
		}
		got, want := streamed[i], all[i]
		got.Received, want.Received = time.Time{}, time.Time{}
		if got != want {
			t.Fatalf("record %d diverged:\n%+v\n%+v", i, got, want)
		}
	}
}
