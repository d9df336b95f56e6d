package collectserver

// Tests for the v2 batch endpoint's backpressure surface (load signal,
// shedding, its in-flight producer), the attributed lane's gate on both
// encodings, and the shutdown ordering: the federation forwarder closes with
// every acknowledged commit in hand, before the WAL's final sync.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"encore/internal/api"
	"encore/internal/core"
	"encore/internal/results"
	"encore/internal/wire"
)

// attributedRecord is a valid pre-attributed measurement for the federation
// lane.
func attributedRecord(id string) results.Measurement {
	return results.Measurement{
		MeasurementID: id,
		PatternKey:    "domain:youtube.com",
		TargetURL:     "http://youtube.com/favicon.ico",
		TaskType:      core.TaskImage,
		State:         core.StateFailure,
		ClientIP:      "203.0.113.9",
		Region:        "PK",
		Browser:       core.BrowserChrome,
		Received:      time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC),
	}
}

// postAttributed posts one attributed record with an optional bearer token.
func postAttributed(t *testing.T, url, token string, rec results.Measurement) *http.Response {
	t.Helper()
	body, err := json.Marshal(api.BatchSubmitRequest{Measurements: []results.Measurement{rec}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+api.V2SubmissionsPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestV2BatchLoadSignalAndShed(t *testing.T) {
	s, store, _, _ := testServer(t)
	s.AllowAttributed = true
	depth, capacity := 0, 1000
	s.LoadProbe = func() (int, int) { return depth, capacity }
	srv := httptest.NewServer(s)
	defer srv.Close()

	submit := func(id string) (*http.Response, api.BatchSubmitResponse) {
		t.Helper()
		resp := postAttributed(t, srv.URL, "", attributedRecord(id))
		var out api.BatchSubmitResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		return resp, out
	}

	// Light load: accepted, load signal present, no advice.
	resp, out := submit("edge-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("light load: status %d", resp.StatusCode)
	}
	if out.Load == nil || out.Load.QueueCapacity != capacity {
		t.Fatalf("light load: missing load signal: %+v", out.Load)
	}
	if out.Load.SuggestedFlushMillis != 0 {
		t.Fatalf("light load advised %dms", out.Load.SuggestedFlushMillis)
	}

	// Loaded past the advice threshold but below shedding: accepted, with a
	// positive suggested flush interval.
	depth = 700
	resp, out = submit("edge-2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loaded: status %d", resp.StatusCode)
	}
	if out.Load == nil || out.Load.SuggestedFlushMillis <= 0 {
		t.Fatalf("loaded: no flush advice: %+v", out.Load)
	}
	if out.Load.QueueDepth != depth {
		t.Fatalf("loaded: QueueDepth = %d, want %d", out.Load.QueueDepth, depth)
	}

	// Saturated: shed with 503 + Retry-After + typed code, nothing stored.
	depth = 950
	before := store.Len()
	resp = postAttributed(t, srv.URL, "", attributedRecord("edge-3"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("saturated: no Retry-After header")
	}
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeOverloaded {
		t.Fatalf("saturated: code %q, want %q", apiErr.Code, api.CodeOverloaded)
	}
	if store.Len() != before {
		t.Fatal("shed request was stored anyway")
	}
}

// TestInFlightRequestIsTheLoadSignal pins the load signal's producer: a batch
// request held open mid-body counts as queue depth in a concurrent response,
// against the fixed in-flight bound, and stops counting once it completes.
func TestInFlightRequestIsTheLoadSignal(t *testing.T) {
	s, _, _, _ := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	probe := func() api.LoadSignal {
		t.Helper()
		resp, err := http.Post(srv.URL+api.V2SubmissionsPath, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		out := decodeBatchResponse(t, resp)
		if resp.StatusCode != http.StatusOK || out.Load == nil {
			t.Fatalf("probe: status %d, load %+v", resp.StatusCode, out.Load)
		}
		return *out.Load
	}
	if idle := probe(); idle.QueueDepth != 0 || idle.QueueCapacity != maxInflightBatches {
		t.Fatalf("idle load %+v, want 0/%d", idle, maxInflightBatches)
	}

	// Hold one request open: headers and half a JSON body sent, the rest
	// withheld until the pipe closes.
	pr, pw := io.Pipe()
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+api.V2SubmissionsPath, "application/json", pr)
		if err != nil {
			t.Error(err)
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	if _, err := pw.Write([]byte(`{"submissions":`)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for probe().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatal("held-open request never showed up as queue depth")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := pw.Write([]byte(`[]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if status := <-held; status != http.StatusOK {
		t.Fatalf("held request finished with status %d", status)
	}
	if after := probe(); after.QueueDepth != 0 {
		t.Fatalf("load %+v after the held request completed, want depth 0", after)
	}
}

// TestV2AttributedLaneAuth runs the attributed-lane gate's cases over both
// encodings: the gate is one piece of code, so JSON and binary must answer
// every case with the same status and code.
func TestV2AttributedLaneAuth(t *testing.T) {
	const token = "s3cret-token"
	cases := []struct {
		name       string
		allow      bool
		token      string // the server's; "" means the lane needs none
		present    string // the batch's bearer token
		wantStatus int
		wantCode   string
	}{
		{"lane off", false, "", "", http.StatusForbidden, api.CodeAttributionNotAllowed},
		{"lane off, token presented", false, "", token, http.StatusForbidden, api.CodeAttributionNotAllowed},
		{"no token", true, token, "", http.StatusForbidden, api.CodeAttributionNotAllowed},
		{"wrong token", true, token, "wrong-token", http.StatusForbidden, api.CodeAttributionNotAllowed},
		{"right token", true, token, token, http.StatusOK, ""},
		{"lane on without a token", true, "", "", http.StatusOK, ""},
	}
	rec := attributedRecord("edge-1")
	frame, err := wire.AppendRecordFrame(nil, 0, 0, (*wire.Record)(&rec))
	if err != nil {
		t.Fatal(err)
	}
	encodings := []struct {
		name string
		post func(t *testing.T, url, token string) *http.Response
	}{
		{"json", func(t *testing.T, url, token string) *http.Response { return postAttributed(t, url, token, rec) }},
		{"binary", func(t *testing.T, url, token string) *http.Response { return postRecords(t, url, frame, token) }},
	}
	for _, tc := range cases {
		for _, enc := range encodings {
			t.Run(tc.name+"/"+enc.name, func(t *testing.T) {
				s, store, _, _ := testServer(t)
				s.AllowAttributed = tc.allow
				s.AttributedToken = tc.token
				srv := httptest.NewServer(s)
				defer srv.Close()

				resp := enc.post(t, srv.URL, tc.present)
				defer resp.Body.Close()
				var apiErr api.Error
				if resp.StatusCode != http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
						t.Fatal(err)
					}
				}
				if resp.StatusCode != tc.wantStatus || apiErr.Code != tc.wantCode {
					t.Fatalf("got %d %q, want %d %q", resp.StatusCode, apiErr.Code, tc.wantStatus, tc.wantCode)
				}
				if _, stored := store.Get("edge-1"); stored != (tc.wantStatus == http.StatusOK) {
					t.Fatalf("record stored = %v on status %d", stored, resp.StatusCode)
				}
			})
		}
	}

	// The raw-submission lane carries no pre-attributed records and must not
	// require the token: it is the public side of the same endpoint.
	s, _, index, _ := testServer(t)
	s.AllowAttributed = true
	s.AttributedToken = token
	srv := httptest.NewServer(s)
	defer srv.Close()
	registerTask(index, "cmh-public", false)
	body, _ := json.Marshal(api.BatchSubmitRequest{Submissions: []api.SubmitRequest{
		{MeasurementID: "cmh-public", Result: string(core.StateSuccess)},
	}})
	rawResp, err := http.Post(srv.URL+api.V2SubmissionsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if out := decodeBatchResponse(t, rawResp); rawResp.StatusCode != http.StatusOK || out.Accepted != 1 {
		t.Fatalf("raw lane with auth enabled: %d %+v", rawResp.StatusCode, out)
	}
}

// drainRecorder stands in for the federation forwarder: it observes commits
// and snapshots, when Close runs, how many it had seen and how many fsyncs
// the WAL had done.
type drainRecorder struct {
	wal           *results.WAL
	seen          atomic.Int64
	seenAtClose   int64
	fsyncsAtClose uint64
}

func (d *drainRecorder) Commit(_ *results.Measurement, _ results.Measurement) { d.seen.Add(1) }
func (d *drainRecorder) Close() error {
	d.seenAtClose = d.seen.Load()
	d.fsyncsAtClose = d.wal.Stats().Fsyncs
	return nil
}

// TestCloseDrainsIngestBeforeForwarder is the shutdown-ordering regression
// test. Ingest is drained by construction — a batch has committed, and so
// reached the forwarder, before its 200 is written — so Server.Close must
// close the forwarder with every acknowledged commit in hand, and only then
// sync the WAL: the forwarder's final flush persists a cursor that the sync
// must cover.
func TestCloseDrainsIngestBeforeForwarder(t *testing.T) {
	s, store, _, _ := testServer(t)
	s.AllowAttributed = true
	wal, err := results.OpenWAL(results.WALConfig{Dir: t.TempDir(), Policy: results.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	s.AttachWAL(wal)
	rec := &drainRecorder{wal: wal}
	// Observer registration order mirrors production: forwarder after WAL.
	store.AddObserver(rec)
	s.Forwarder = rec
	srv := httptest.NewServer(s)
	defer srv.Close()

	// More than one commit chunk, so the tail commit is covered too.
	const n = commitChunk*2 + 7
	var frames []byte
	for i := 0; i < n; i++ {
		m := attributedRecord(fmt.Sprintf("edge-%d", i))
		if frames, err = wire.AppendRecordFrame(frames, 0, 0, (*wire.Record)(&m)); err != nil {
			t.Fatal(err)
		}
	}
	if out := decodeBatchResponse(t, postRecords(t, srv.URL, frames, "")); out.Accepted != n {
		t.Fatalf("batch: %+v", out)
	}
	if got := rec.seen.Load(); got != n {
		t.Fatalf("forwarder had observed %d of %d commits when the batch was acknowledged", got, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.seenAtClose != n {
		t.Fatalf("forwarder closed after observing %d of %d commits", rec.seenAtClose, n)
	}
	if after := wal.Stats().Fsyncs; after <= rec.fsyncsAtClose {
		t.Fatalf("WAL fsyncs %d at forwarder close, %d after Server.Close: the log was not synced after the forwarder's final flush", rec.fsyncsAtClose, after)
	}
	if store.Len() != n {
		t.Fatalf("store has %d records after Close, want %d", store.Len(), n)
	}
}
