package client

// Tests for the SDK's opt-in binary transport: batch submission, the
// raw-frame federation path, and the negotiated binary measurement export —
// each asserted to behave exactly like its JSON twin.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"encore/internal/api"
	"encore/internal/core"
	"encore/internal/results"
	"encore/internal/wire"
)

func TestBinarySubmitBatch(t *testing.T) {
	backend, store, _ := testCollector(t, 8)
	// A recording proxy pins the wire-level contract: binary bodies carry
	// the records content type and are never gzip-compressed.
	var sawContentType, sawEncoding string
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawContentType = r.Header.Get("Content-Type")
		sawEncoding = r.Header.Get("Content-Encoding")
		backend.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	c := NewWithConfig(proxy.URL, Config{BinaryEncoding: true, GzipThreshold: 1})
	if !c.BinaryEncoding() {
		t.Fatal("BinaryEncoding not reported")
	}
	resp, err := c.SubmitBatch(context.Background(), []api.SubmitRequest{
		{MeasurementID: "m-1", Result: "success", ElapsedMillis: 10},
		{MeasurementID: "m-2", Result: "failure", ElapsedMillis: 20},
		{MeasurementID: "nope", Result: "success"},
	}, &ClientMeta{IP: "198.51.100.7", UserAgent: "Mozilla/5.0 Chrome/39.0"})
	if err != nil {
		t.Fatal(err)
	}
	// The unregistered member is rejected by its index in the frame stream;
	// the rest of the batch commits.
	if resp.Accepted != 2 || len(resp.Rejected) != 1 {
		t.Fatalf("binary batch response %+v", resp)
	}
	if rej := resp.Rejected[0]; rej.Index != 2 || rej.MeasurementID != "nope" || rej.Code != api.CodeUnknownMeasurement {
		t.Fatalf("binary batch rejection %+v, want index 2 (nope) %s", rej, api.CodeUnknownMeasurement)
	}
	if resp.Load == nil {
		t.Fatal("binary response lost the load signal")
	}
	if sawContentType != wire.ContentTypeRecords {
		t.Fatalf("Content-Type %q", sawContentType)
	}
	if sawEncoding != "" {
		t.Fatalf("binary body was %s-compressed", sawEncoding)
	}
	if store.Len() != 2 {
		t.Fatalf("store has %d, want 2", store.Len())
	}
	if m, _ := store.Get("m-1"); m.Browser != core.BrowserChrome {
		t.Fatalf("binary submission not attributed from ClientMeta: %+v", m)
	}
}

func TestBinaryForwardAndMeasurements(t *testing.T) {
	upstream, store, srv := testCollector(t, 0)
	upstream.AllowAttributed = true
	c := NewWithConfig(srv.URL, Config{BinaryEncoding: true})
	ctx := context.Background()

	ms := []results.Measurement{
		{
			MeasurementID: "edge-1",
			PatternKey:    "domain:youtube.com",
			TargetURL:     "http://youtube.com/favicon.ico",
			TaskType:      core.TaskImage,
			State:         core.StateFailure,
			ClientIP:      "203.0.113.9",
			Region:        "PK",
			Browser:       core.BrowserChrome,
			Received:      time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC),
		},
		{
			MeasurementID: "edge-2",
			PatternKey:    "domain:youtube.com",
			TargetURL:     "http://youtube.com/favicon.ico",
			TaskType:      core.TaskImage,
			State:         core.StateSuccess,
			ClientIP:      "203.0.113.10",
			Region:        "PK",
			Browser:       core.BrowserFirefox,
			OriginSite:    "blog.example.org",
			Received:      time.Date(2014, 8, 1, 0, 1, 0, 0, time.UTC),
		},
	}
	// The federation lane ships pre-framed bytes verbatim, and the
	// attributed records land unmutated.
	var frames []byte
	for i := range ms {
		var err error
		if frames, err = wire.AppendRecordFrame(frames, uint64(i+1), uint64(i+1), (*wire.Record)(&ms[i])); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.ForwardRecordFrames(ctx, frames)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || len(resp.Rejected) != 0 {
		t.Fatalf("binary forward response %+v", resp)
	}
	for _, want := range ms {
		if got, ok := store.Get(want.MeasurementID); !ok || got != want {
			t.Fatalf("forwarded record mutated in flight:\n got %+v\nwant %+v", got, want)
		}
	}

	// A re-sent frame is absorbed, a frame retracting edge-1's failure to
	// success is refused at its own index (the first terminal state wins),
	// and an init → success upgrade applies.
	retracted := ms[0]
	retracted.State = core.StateSuccess
	fresh := ms[1]
	fresh.MeasurementID, fresh.State = "edge-3", core.StateInit
	upgraded := fresh
	upgraded.State = core.StateSuccess
	var frame []byte
	for i, m := range []results.Measurement{ms[0], retracted, fresh, upgraded} {
		var err error
		if frame, err = wire.AppendRecordFrame(frame, uint64(42+i), uint64(42+i), (*wire.Record)(&m)); err != nil {
			t.Fatal(err)
		}
	}
	fresp, err := c.ForwardRecordFrames(ctx, frame)
	if err != nil {
		t.Fatal(err)
	}
	if fresp.Accepted != 3 || len(fresp.Rejected) != 1 {
		t.Fatalf("raw-frame forward response %+v", fresp)
	}
	if rej := fresp.Rejected[0]; rej.Index != 1 || rej.MeasurementID != "edge-1" || rej.Code != api.CodeConflictingResult {
		t.Fatalf("raw-frame rejection %+v, want index 1 (edge-1) %s", rej, api.CodeConflictingResult)
	}
	if got, _ := store.Get("edge-1"); got != ms[0] {
		t.Fatalf("refused retraction applied: %+v", got)
	}
	if got, _ := store.Get("edge-3"); got != upgraded {
		t.Fatalf("raw-frame upgrade not applied: %+v", got)
	}

	// The binary export streams back exactly what the JSON export would.
	var binary []results.Measurement
	if err := c.Measurements(ctx, func(m results.Measurement) error {
		binary = append(binary, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	jsonClient := New(srv.URL)
	var jsonl []results.Measurement
	if err := jsonClient.Measurements(ctx, func(m results.Measurement) error {
		jsonl = append(jsonl, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(binary, jsonl) {
		t.Fatalf("binary export diverged from JSONL export:\n got %+v\nwant %+v", binary, jsonl)
	}
}
