package collectserver

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"encore/internal/api"
	"encore/internal/core"
	"encore/internal/results"
)

// goldenGIF is the exact §5.5 beacon response body, declared independently
// of the server's transparentGIF so a drift in either copy fails the test.
var goldenGIF = []byte{
	0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x01, 0x00, 0x01, 0x00, 0x80, 0x00,
	0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0x21, 0xf9, 0x04, 0x01, 0x00,
	0x00, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00,
	0x00, 0x02, 0x02, 0x44, 0x01, 0x00, 0x3b,
}

// TestV1GoldenCompat pins the v1 wire surface byte for byte through the new
// router: deployed beacon clients must observe exactly the responses the
// seed server produced.
func TestV1GoldenCompat(t *testing.T) {
	s, _, index, _ := testServer(t)
	registerTask(index, "m-gold", false)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Submission beacon: 200, image/gif, no-store, CORS, the exact GIF, on
	// both the bare beacon-era path and the /v1/ alias.
	for _, path := range []string{"/submit", "/v1/submit"} {
		resp, err := http.Get(srv.URL + path + "?cmh-id=m-gold&cmh-result=success&cmh-elapsed=42")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != "image/gif" {
			t.Fatalf("%s: Content-Type %q", path, got)
		}
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Fatalf("%s: Cache-Control %q", path, got)
		}
		if got := resp.Header.Get("Access-Control-Allow-Origin"); got != "*" {
			t.Fatalf("%s: Access-Control-Allow-Origin %q", path, got)
		}
		if !bytes.Equal(body, goldenGIF) {
			t.Fatalf("%s: beacon body diverged from the golden GIF: %x", path, body)
		}
	}

	// Health: exact text, with the stored count.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := string(readAll(t, resp)); body != "ok: 1 measurements\n" {
		t.Fatalf("healthz body %q", body)
	}

	// Unknown path: the stock Go 404, with the CORS header the seed server
	// attached to every response.
	resp, err = http.Get(srv.URL + "/definitely-not-registered")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d", resp.StatusCode)
	}
	if body := string(readAll(t, resp)); body != "404 page not found\n" {
		t.Fatalf("404 body %q", body)
	}
	if resp.Header.Get("Access-Control-Allow-Origin") != "*" {
		t.Fatal("404 lost the CORS header")
	}
}

// TestRouterKillsSuffixMatching is the satellite regression test: the seed
// dispatch served "/anything/healthz" and any request method; the router
// must 404 the former and 405 the latter.
func TestRouterKillsSuffixMatching(t *testing.T) {
	s, _, _, _ := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	for _, path := range []string{"/nested/healthz", "/nested/submit", "/submit/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/submit", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /submit: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("Allow=%q", allow)
	}
}

// TestV1SubmitErrorMapping is the satellite regression test for the error
// surface: guard rejections and unknown IDs map to typed statuses, and no
// internal error string reaches the body.
func TestV1SubmitErrorMapping(t *testing.T) {
	s, _, index, _ := testServer(t)
	s.Guard = NewAbuseGuard(AbuseGuardConfig{MaxSubmissionsPerWindow: 2, Window: time.Hour})
	registerTask(index, "m-err", false)
	srv := httptest.NewServer(s)
	defer srv.Close()

	get := func(id string, state core.State) *http.Response {
		t.Helper()
		resp, err := http.Get(SubmitURL(srv.URL, id, state, 1))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Unknown measurement → 404 unknown_measurement.
	resp := get("never-registered", core.StateSuccess)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}
	if body := string(readAll(t, resp)); strings.TrimSpace(body) != api.CodeUnknownMeasurement {
		t.Fatalf("unknown id body %q leaks more than the code", body)
	}

	// Conflicting terminal state → 409.
	resp = get("m-err", core.StateSuccess)
	readAll(t, resp)
	resp = get("m-err", core.StateFailure)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting result: status %d, want 409", resp.StatusCode)
	}
	if body := string(readAll(t, resp)); strings.Contains(body, "collectserver:") {
		t.Fatalf("conflict body %q leaks internals", body)
	}

	// Rate limit (2 submissions spent above) → 429.
	resp = get("m-err", core.StateSuccess)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate limited: status %d, want 429", resp.StatusCode)
	}
	if body := string(readAll(t, resp)); strings.TrimSpace(body) != api.CodeRateLimited {
		t.Fatalf("rate-limit body %q leaks more than the code", body)
	}

	// Malformed submission → 400.
	resp = get("", core.StateSuccess)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid: status %d, want 400", resp.StatusCode)
	}
	readAll(t, resp)
}

// TestCORSPreflight is the satellite test for cross-origin AJAX submissions
// (§5.5): OPTIONS on the submission endpoints must answer the preflight with
// the methods and headers the browser will send.
func TestCORSPreflight(t *testing.T) {
	s, _, _, _ := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	for _, path := range []string{"/submit", api.V2SubmissionsPath} {
		req, _ := http.NewRequest(http.MethodOptions, srv.URL+path, nil)
		req.Header.Set("Origin", "http://origin.example.org")
		req.Header.Set("Access-Control-Request-Method", "POST")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("OPTIONS %s: status %d", path, resp.StatusCode)
		}
		if resp.Header.Get("Access-Control-Allow-Origin") != "*" {
			t.Fatalf("OPTIONS %s: missing Allow-Origin", path)
		}
		if m := resp.Header.Get("Access-Control-Allow-Methods"); m == "" {
			t.Fatalf("OPTIONS %s: missing Allow-Methods", path)
		}
		if h := resp.Header.Get("Access-Control-Allow-Headers"); !strings.Contains(h, "Content-Type") {
			t.Fatalf("OPTIONS %s: Allow-Headers=%q", path, h)
		}
	}
}

// TestV2BatchSubmitRoundTrip drives POST /v2/submissions end to end: a
// plain batch, a gzip batch, per-member rejections, and visibility in the
// store, the v2 health JSON, and the measurement export.
func TestV2BatchSubmitRoundTrip(t *testing.T) {
	s, store, index, _ := testServer(t)
	s.Guard = nil
	for i := 0; i < 8; i++ {
		registerTask(index, fmt.Sprintf("m-%d", i), false)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	post := func(body []byte, gzipped bool) (*http.Response, api.BatchSubmitResponse) {
		t.Helper()
		var buf bytes.Buffer
		if gzipped {
			gz := gzip.NewWriter(&buf)
			if _, err := gz.Write(body); err != nil {
				t.Fatal(err)
			}
			gz.Close()
		} else {
			buf.Write(body)
		}
		req, _ := http.NewRequest(http.MethodPost, srv.URL+api.V2SubmissionsPath, &buf)
		req.Header.Set("Content-Type", "application/json")
		if gzipped {
			req.Header.Set("Content-Encoding", "gzip")
		}
		req.Header.Set("User-Agent", "Mozilla/5.0 (X11) Firefox/35.0")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var decoded api.BatchSubmitResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		return resp, decoded
	}

	simTime := time.Date(2014, 5, 1, 12, 0, 0, 0, time.UTC)
	batch := api.BatchSubmitRequest{Submissions: []api.SubmitRequest{
		{MeasurementID: "m-0", Result: "success", ElapsedMillis: 120},
		{MeasurementID: "m-1", Result: "failure", ElapsedMillis: 640, ReceivedUnixMillis: simTime.UnixMilli()},
		{MeasurementID: "not-registered", Result: "success"},
	}}
	body, _ := json.Marshal(batch)
	resp, out := post(body, false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if out.Accepted != 2 || len(out.Rejected) != 1 {
		t.Fatalf("batch response %+v", out)
	}
	if rej := out.Rejected[0]; rej.Index != 2 || rej.Code != api.CodeUnknownMeasurement {
		t.Fatalf("rejection %+v", rej)
	}
	if store.Len() != 2 {
		t.Fatalf("store has %d, want 2", store.Len())
	}
	m, ok := store.Get("m-1")
	if !ok || m.State != core.StateFailure || m.Browser != core.BrowserFirefox || m.DurationMillis != 640 {
		t.Fatalf("stored measurement %+v", m)
	}
	// The carried observation time survives (it is in the past relative to
	// the server clock, so no clamping); the member without one is stamped
	// on arrival.
	if !m.Received.Equal(simTime) {
		t.Fatalf("received_unix_millis not honoured: %v", m.Received)
	}
	if m0, _ := store.Get("m-0"); !m0.Received.Equal(s.Now()) {
		t.Fatalf("timestamp-less member not stamped on arrival: %v", m0.Received)
	}

	// Gzip-compressed batch, with a body-supplied origin that must be
	// normalized exactly like a v1 Referer header would be.
	batch = api.BatchSubmitRequest{Submissions: []api.SubmitRequest{
		{MeasurementID: "m-2", Result: "success", ElapsedMillis: 80, OriginSite: "http://Blog.Example.ORG/post.html"},
	}}
	body, _ = json.Marshal(batch)
	resp, out = post(body, true)
	if resp.StatusCode != http.StatusOK || out.Accepted != 1 {
		t.Fatalf("gzip batch: status %d, %+v", resp.StatusCode, out)
	}
	if m, _ := store.Get("m-2"); m.OriginSite != "blog.example.org" {
		t.Fatalf("v2 origin not normalized: %q", m.OriginSite)
	}

	// Malformed JSON → 400 bad_request.
	resp, _ = post([]byte("{nope"), false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}

	// v2 health reflects the stored count.
	hresp, err := http.Get(srv.URL + api.V2HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	var health api.HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || health.Measurements != 3 {
		t.Fatalf("health %+v", health)
	}

	// The measurement export streams the same records WriteJSONL persists.
	eresp, err := http.Get(srv.URL + api.V2MeasurementsPath)
	if err != nil {
		t.Fatal(err)
	}
	exported := readAll(t, eresp)
	var want strings.Builder
	if err := store.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if string(exported) != want.String() {
		t.Fatalf("export diverged from WriteJSONL:\n%s\nvs\n%s", exported, want.String())
	}
}

// TestV2BackdatedTimestampsCannotEvadeRateLimit pins the §8 property that
// the rate guard windows over server arrival time, not the client-carried
// observation timestamp: a single address spacing backdated timestamps a
// window apart must still be throttled exactly like a run of beacons.
func TestV2BackdatedTimestampsCannotEvadeRateLimit(t *testing.T) {
	s, store, index, _ := testServer(t)
	s.Guard = NewAbuseGuard(AbuseGuardConfig{MaxSubmissionsPerWindow: 2, Window: time.Hour})
	const n = 6
	for i := 0; i < n; i++ {
		registerTask(index, fmt.Sprintf("m-%d", i), false)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Six submissions from one IP, timestamps marching backwards through
	// history one window apart — the bucket-reset trick.
	base := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	var req api.BatchSubmitRequest
	for i := 0; i < n; i++ {
		req.Submissions = append(req.Submissions, api.SubmitRequest{
			MeasurementID:      fmt.Sprintf("m-%d", i),
			Result:             "success",
			ReceivedUnixMillis: base.Add(time.Duration(i) * 2 * time.Hour).UnixMilli(),
		})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+api.V2SubmissionsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out api.BatchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Accepted != 2 || len(out.Rejected) != n-2 {
		t.Fatalf("backdated batch evaded the guard: %+v", out)
	}
	for _, rej := range out.Rejected {
		if rej.Code != api.CodeRateLimited {
			t.Fatalf("rejection %+v, want rate_limited", rej)
		}
	}
	if store.Len() != 2 {
		t.Fatalf("store has %d, want 2", store.Len())
	}
}

// TestV2BatchAttributedLane covers the federation lane: pre-attributed
// measurement records are refused with 403 unless the server was configured
// as an aggregation-tier upstream, and accepted records land verbatim.
func TestV2BatchAttributedLane(t *testing.T) {
	s, store, _, _ := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

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
	body, _ := json.Marshal(api.BatchSubmitRequest{Measurements: []results.Measurement{rec}})

	resp, err := http.Post(srv.URL+api.V2SubmissionsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
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

	// An upstream instance accepts the same batch. Invalid records — no ID,
	// or a browser family or task type outside its enum — are rejected
	// per-member while the records around them commit.
	up, upStore, _, _ := testServer(t)
	up.AllowAttributed = true
	upSrv := httptest.NewServer(up)
	defer upSrv.Close()
	badBrowser, badTaskType, last := rec, rec, rec
	badBrowser.MeasurementID, badBrowser.Browser = "edge-browser", 42
	badTaskType.MeasurementID, badTaskType.TaskType = "edge-task-type", 9
	last.MeasurementID = "edge-2"
	body, _ = json.Marshal(api.BatchSubmitRequest{Measurements: []results.Measurement{
		rec,
		{MeasurementID: "", PatternKey: "domain:x", State: core.StateSuccess},
		badBrowser,
		badTaskType,
		last,
	}})
	resp, err = http.Post(upSrv.URL+api.V2SubmissionsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out api.BatchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Accepted != 2 || len(out.Rejected) != 3 {
		t.Fatalf("upstream batch: %d %+v", resp.StatusCode, out)
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

// TestV2BatchConcurrent hammers the batch endpoint from several goroutines;
// every batch has committed when its 200 arrives. Run under -race by
// scripts/ci.sh.
func TestV2BatchConcurrent(t *testing.T) {
	s, store, index, _ := testServer(t)
	s.Guard = nil
	const workers, perWorker, batch = 8, 20, 16
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker*batch; i++ {
			registerTask(index, fmt.Sprintf("m-%d-%d", w, i), false)
		}
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var req api.BatchSubmitRequest
				for j := 0; j < batch; j++ {
					req.Submissions = append(req.Submissions, api.SubmitRequest{
						MeasurementID: fmt.Sprintf("m-%d-%d", w, i*batch+j),
						Result:        "success",
					})
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(srv.URL+api.V2SubmissionsPath, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if want := workers * perWorker * batch; store.Len() != want {
		t.Fatalf("store has %d after concurrent batches, want %d", store.Len(), want)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
