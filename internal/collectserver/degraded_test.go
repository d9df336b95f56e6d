package collectserver

// Graceful-degradation contract: a collector whose WAL goes sticky reports
// "degraded" on /v2/healthz with the cause and the forwarder's lag, refuses the durable v2 batch lane with a typed 503, and keeps
// serving reads and the best-effort v1 beacon lane.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"encore/internal/api"
	"encore/internal/faultinject"
	"encore/internal/results"
)

// fakeForwarderHealth stubs the ForwarderHealth probe surface.
type fakeForwarderHealth struct {
	lag         uint64
	deadLetters int
}

func (f *fakeForwarderHealth) Lag() uint64          { return f.lag }
func (f *fakeForwarderHealth) DeadLetterCount() int { return f.deadLetters }
func (f *fakeForwarderHealth) Close() error         { return nil }

// getHealth fetches and decodes /v2/healthz.
func getHealth(t *testing.T, base string) api.HealthResponse {
	t.Helper()
	resp, err := http.Get(base + api.V2HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200 even when degraded", resp.StatusCode)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHealthzReportsDegradedOnStickyWAL(t *testing.T) {
	s, _, index, _ := testServer(t)
	s.Forwarder = &fakeForwarderHealth{lag: 7, deadLetters: 3}
	ffs := faultinject.NewFaultFS()
	wal, err := results.OpenWAL(results.WALConfig{
		Dir: t.TempDir(), FS: ffs, Policy: results.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	s.AttachWAL(wal)
	srv := httptest.NewServer(s)
	defer srv.Close()

	registerTask(index, "m-ok", false)
	if h := getHealth(t, srv.URL); h.Status != api.StatusOK {
		t.Fatalf("healthy collector status = %q, want ok", h.Status)
	}

	// Healthy v2 submissions work.
	submitV2 := func(id string) *http.Response {
		body, _ := json.Marshal(api.BatchSubmitRequest{Submissions: []api.SubmitRequest{
			{MeasurementID: id, Result: "success", ElapsedMillis: 12},
		}})
		resp, err := http.Post(srv.URL+api.V2SubmissionsPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := submitV2("m-ok")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy v2 submit status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Break the disk; the next durable append poisons the WAL.
	ffs.InjectFsyncFailures()
	registerTask(index, "m-poison", false)
	resp = submitV2("m-poison")
	resp.Body.Close()
	if err := wal.Err(); err == nil {
		t.Fatal("WAL did not record the injected fsync failure")
	}

	h := getHealth(t, srv.URL)
	if h.Status != api.StatusDegraded {
		t.Fatalf("status = %q, want degraded", h.Status)
	}
	if h.WALError == "" {
		t.Fatal("degraded health carries no wal_error detail")
	}
	if h.ForwarderLag != 7 || h.ForwarderDeadLetters != 3 {
		t.Fatalf("forwarder detail = lag %d / dead letters %d, want 7 / 3",
			h.ForwarderLag, h.ForwarderDeadLetters)
	}

	// The durable v2 lane is closed with the typed degraded code...
	registerTask(index, "m-refused", false)
	resp = submitV2("m-refused")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded v2 submit status %d, want 503", resp.StatusCode)
	}
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeDegraded {
		t.Fatalf("degraded v2 submit code = %q, want %q", apiErr.Code, api.CodeDegraded)
	}

	// ...while the best-effort v1 beacon lane and reads keep serving.
	registerTask(index, "m-beacon", false)
	beacon, err := http.Get(srv.URL + fmt.Sprintf("/submit?cmh-id=%s&cmh-result=success&cmh-elapsed=5", "m-beacon"))
	if err != nil {
		t.Fatal(err)
	}
	beacon.Body.Close()
	if beacon.StatusCode != http.StatusOK {
		t.Fatalf("degraded v1 beacon status %d, want 200 (non-durable lane stays open)", beacon.StatusCode)
	}
	export, err := http.Get(srv.URL + api.V2MeasurementsPath)
	if err != nil {
		t.Fatal(err)
	}
	export.Body.Close()
	if export.StatusCode != http.StatusOK {
		t.Fatalf("degraded measurements export status %d, want 200", export.StatusCode)
	}
}

// TestHealthzReportsForwarderLag checks a forwarder behind its upstream is
// reported, not degraded: its backlog waits in the WAL, so nothing is lost.
func TestHealthzReportsForwarderLag(t *testing.T) {
	s, _, _, _ := testServer(t)
	s.Forwarder = &fakeForwarderHealth{lag: 11}
	srv := httptest.NewServer(s)
	defer srv.Close()
	h := getHealth(t, srv.URL)
	if h.Status != api.StatusOK {
		t.Fatalf("status = %q, want ok while the forwarder lags", h.Status)
	}
	if h.ForwarderLag != 11 {
		t.Fatalf("forwarder_lag = %d, want 11", h.ForwarderLag)
	}
}
