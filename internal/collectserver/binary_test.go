package collectserver

// Tests for the application/x-encore-records lane of the v2 surface: the
// streaming binary batch POST (round trip, per-index rejections, wire-level
// 400s, attributed-lane gating) and the Accept-negotiated binary measurement
// export. Semantics are asserted against the JSON lane's — the two must stay
// equivalent by construction.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"encore/internal/api"
	"encore/internal/core"
	"encore/internal/results"
	"encore/internal/wire"
)

// postRecords POSTs raw frame bytes to the batch endpoint with the binary
// content type.
func postRecords(t *testing.T, url string, frames []byte, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+api.V2SubmissionsPath, bytes.NewReader(frames))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeRecords)
	req.Header.Set("User-Agent", "Mozilla/5.0 (X11) Firefox/35.0")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBatchResponse(t *testing.T, resp *http.Response) api.BatchSubmitResponse {
	t.Helper()
	defer resp.Body.Close()
	var out api.BatchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestV2BinaryBatchRoundTrip(t *testing.T) {
	s, store, index, _ := testServer(t)
	s.Guard = nil
	for i := 0; i < 4; i++ {
		registerTask(index, fmt.Sprintf("m-%d", i), false)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	simTime := time.Date(2014, 5, 1, 12, 0, 0, 0, time.UTC)
	var frames []byte
	for _, sub := range []wire.Submission{
		{MeasurementID: "m-0", Result: "success", ElapsedMillis: 120},
		{MeasurementID: "m-1", Result: "failure", ElapsedMillis: 640, ReceivedUnixMillis: simTime.UnixMilli()},
		{MeasurementID: "not-registered", Result: "success"},
		{MeasurementID: "m-2", Result: "success", ElapsedMillis: 80, OriginSite: "http://Blog.Example.ORG/post.html"},
	} {
		frames = wire.AppendSubmissionFrame(frames, &sub)
	}

	out := decodeBatchResponse(t, postRecords(t, srv.URL, frames, ""))
	if out.Accepted != 3 || len(out.Rejected) != 1 {
		t.Fatalf("binary batch response %+v", out)
	}
	if rej := out.Rejected[0]; rej.Index != 2 || rej.Code != api.CodeUnknownMeasurement || rej.MeasurementID != "not-registered" {
		t.Fatalf("rejection %+v", rej)
	}
	if out.Load == nil {
		t.Fatal("binary response lost the load signal")
	}
	if store.Len() != 3 {
		t.Fatalf("store has %d, want 3", store.Len())
	}
	// Same semantics as the JSON lane: browser attributed from the shared
	// User-Agent, client timestamp honoured, missing timestamp stamped on
	// arrival, body-supplied origin normalized like a Referer.
	m, ok := store.Get("m-1")
	if !ok || m.State != core.StateFailure || m.Browser != core.BrowserFirefox || m.DurationMillis != 640 {
		t.Fatalf("stored measurement %+v", m)
	}
	if !m.Received.Equal(simTime) {
		t.Fatalf("received_unix_millis not honoured: %v", m.Received)
	}
	if m0, _ := store.Get("m-0"); !m0.Received.Equal(s.Now()) {
		t.Fatalf("timestamp-less member not stamped on arrival: %v", m0.Received)
	}
	if m2, _ := store.Get("m-2"); m2.OriginSite != "blog.example.org" {
		t.Fatalf("binary origin not normalized: %q", m2.OriginSite)
	}
}

func TestV2BinaryBatchWireErrors(t *testing.T) {
	s, store, index, _ := testServer(t)
	s.Guard = nil
	registerTask(index, "m-0", false)
	srv := httptest.NewServer(s)
	defer srv.Close()

	valid := wire.AppendSubmissionFrame(nil, &wire.Submission{MeasurementID: "m-0", Result: "success"})
	// Unknown payload kind: a well-framed payload under kind 99.
	unknown := append(make([]byte, wire.FrameHeaderLen, wire.FrameHeaderLen+2), 99, 'x')
	wire.FillFrameHeader(unknown)
	cases := map[string][]byte{
		"crc flip":     append(bytes.Clone(valid[:len(valid)-1]), valid[len(valid)-1]^0xff),
		"truncated":    valid[:len(valid)-3],
		"torn header":  valid[:4],
		"zero length":  {0, 0, 0, 0, 0, 0, 0, 0},
		"length bomb":  {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"unknown kind": unknown,
	}
	for name, frames := range cases {
		resp := postRecords(t, srv.URL, frames, "")
		var apiErr api.Error
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || apiErr.Code != api.CodeBadRequest {
			t.Fatalf("%s: status %d code %q, want 400 bad_request", name, resp.StatusCode, apiErr.Code)
		}
	}
	if store.Len() != 0 {
		t.Fatalf("store has %d after wire errors, want 0", store.Len())
	}

	// A wire error after valid frames aborts the request, but the committed
	// prefix is retryable: the whole stream re-POSTs cleanly.
	torn := append(bytes.Clone(valid), valid[:5]...)
	resp := postRecords(t, srv.URL, torn, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn tail: status %d", resp.StatusCode)
	}
	out := decodeBatchResponse(t, postRecords(t, srv.URL, valid, ""))
	if out.Accepted != 1 {
		t.Fatalf("retry after torn tail: %+v", out)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d after retry, want 1", store.Len())
	}
}

func TestV2BinaryAttributedLane(t *testing.T) {
	rec := results.Measurement{
		MeasurementID: "edge-1",
		PatternKey:    "domain:youtube.com",
		TargetURL:     "http://youtube.com/favicon.ico",
		TaskType:      core.TaskImage,
		State:         core.StateFailure,
		ClientIP:      "203.0.113.9",
		Region:        "PK",
		Browser:       core.BrowserChrome,
		Received:      time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC),
	}
	frame, err := wire.AppendRecordFrame(nil, 0, 0, (*wire.Record)(&rec))
	if err != nil {
		t.Fatal(err)
	}

	// Not an aggregation-tier upstream: record frames are refused with the
	// same typed 403 the JSON lane returns.
	s, store, _, _ := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp := postRecords(t, srv.URL, frame, "")
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || apiErr.Code != api.CodeAttributionNotAllowed {
		t.Fatalf("attributed lane without AllowAttributed: %d %+v", resp.StatusCode, apiErr)
	}
	if store.Len() != 0 {
		t.Fatal("refused records were stored")
	}

	// An upstream with a token refuses an unauthenticated batch and accepts
	// an authenticated one; an invalid record rejects per-index.
	up, upStore, _, _ := testServer(t)
	up.AllowAttributed = true
	up.AttributedToken = "sekrit"
	upSrv := httptest.NewServer(up)
	defer upSrv.Close()

	resp = postRecords(t, upSrv.URL, frame, "wrong")
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bad token: status %d", resp.StatusCode)
	}

	// Records with no ID, or with a browser family or task type outside its
	// enum, reject at their own index; the frames around them commit.
	badBrowser, badTaskType, last := rec, rec, rec
	badBrowser.MeasurementID, badBrowser.Browser = "edge-browser", 42
	badTaskType.MeasurementID, badTaskType.TaskType = "edge-task-type", 9
	last.MeasurementID = "edge-2"
	frames := bytes.Clone(frame)
	for _, m := range []results.Measurement{
		{MeasurementID: "", PatternKey: "domain:x", State: core.StateSuccess},
		badBrowser,
		badTaskType,
		last,
	} {
		if frames, err = wire.AppendRecordFrame(frames, 0, 0, (*wire.Record)(&m)); err != nil {
			t.Fatal(err)
		}
	}
	out := decodeBatchResponse(t, postRecords(t, upSrv.URL, frames, "sekrit"))
	if out.Accepted != 2 || len(out.Rejected) != 3 {
		t.Fatalf("upstream binary batch: %+v", out)
	}
	for i, rej := range out.Rejected {
		if rej.Index != i+1 || rej.Code != api.CodeInvalidSubmission {
			t.Fatalf("rejection %d: %+v", i, rej)
		}
	}
	for _, want := range []results.Measurement{rec, last} {
		if got, ok := upStore.Get(want.MeasurementID); !ok || got != want {
			t.Fatalf("attributed record mutated in flight:\n got %+v\nwant %+v", got, want)
		}
	}
	if upStore.Len() != 2 {
		t.Fatalf("upstream holds %d records, want 2", upStore.Len())
	}
}

// TestV2BinaryBatchChunkedCommit drives more frames than one commit chunk
// through the streaming lane, so the chunked store commits are exercised.
func TestV2BinaryBatchChunkedCommit(t *testing.T) {
	s, store, index, _ := testServer(t)
	s.Guard = nil
	const n = commitChunk*2 + 37
	var frames []byte
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("m-%d", i)
		registerTask(index, id, false)
		frames = wire.AppendSubmissionFrame(frames, &wire.Submission{MeasurementID: id, Result: "success"})
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	out := decodeBatchResponse(t, postRecords(t, srv.URL, frames, ""))
	if out.Accepted != n || len(out.Rejected) != 0 {
		t.Fatalf("chunked batch: accepted %d rejected %d, want %d/0", out.Accepted, len(out.Rejected), n)
	}
	if store.Len() != n {
		t.Fatalf("store has %d, want %d", store.Len(), n)
	}
}

// TestV2MeasurementsBinaryExport covers Accept negotiation on the export:
// the default stays JSONL, and the binary body is exactly WriteWire's output
// — which decodes back to the same store.
func TestV2MeasurementsBinaryExport(t *testing.T) {
	s, store, _, _ := testServer(t)
	s.Guard = nil
	for i := 0; i < 5; i++ {
		if err := store.Add(results.Measurement{
			MeasurementID: fmt.Sprintf("m-%d", i),
			PatternKey:    "domain:youtube.com",
			TargetURL:     "http://youtube.com/favicon.ico",
			TaskType:      core.TaskImage,
			State:         core.StateSuccess,
			ClientIP:      "198.51.100.7",
			Received:      s.Now(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	get := func(accept string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+api.V2MeasurementsPath, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, readAll(t, resp)
	}

	// Default and wildcard Accepts keep the JSONL body.
	for _, accept := range []string{"", "*/*", "application/json, */*"} {
		resp, body := get(accept)
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Accept %q: Content-Type %q", accept, ct)
		}
		var want strings.Builder
		if err := store.WriteJSONL(&want); err != nil {
			t.Fatal(err)
		}
		if string(body) != want.String() {
			t.Fatalf("Accept %q: JSONL body diverged", accept)
		}
	}

	resp, body := get(wire.ContentTypeRecords + ";q=0.9, */*")
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeRecords {
		t.Fatalf("binary export Content-Type %q", ct)
	}
	var want bytes.Buffer
	if err := store.WriteWire(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("binary export diverged from WriteWire")
	}
	// The stream decodes back to the store, in insertion order.
	fr := wire.NewFrameReader(bytes.NewReader(body))
	all := store.All()
	for i := 0; ; i++ {
		payload, err := fr.Next()
		if err != nil {
			if i != len(all) {
				t.Fatalf("export decoded %d records (err %v), want %d", i, err, len(all))
			}
			break
		}
		_, _, rec, err := wire.DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := results.Measurement(rec); got != all[i] {
			t.Fatalf("export record %d:\n got %+v\nwant %+v", i, got, all[i])
		}
	}
}
