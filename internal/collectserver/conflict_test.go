package collectserver

// A measurement keeps its first terminal state (§8). The store refuses the
// other one, so every lane answers a conflicting resubmission the same way:
// 409 on the v1 beacon, a per-index conflicting_result on the v2 batch lanes
// — raw and attributed, JSON and frames — at the member's own lane index.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"encore/internal/api"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
	"encore/internal/wire"
)

func TestServerRejectsConflictingResubmission(t *testing.T) {
	store := results.NewStore()
	index := results.NewTaskIndex()
	s := New(store, index, geo.NewRegistry(1))
	registerTask(index, "m-conflict", false)
	if err := s.Accept(core.Submission{MeasurementID: "m-conflict", State: core.StateSuccess, ClientIP: "11.0.0.1"}); err != nil {
		t.Fatal(err)
	}
	err := s.Accept(core.Submission{MeasurementID: "m-conflict", State: core.StateFailure, ClientIP: "11.0.0.2"})
	if !errors.Is(err, results.ErrConflictingData) {
		t.Fatalf("conflicting resubmission accepted: %v", err)
	}
	if e := submissionError(err); e.Code != api.CodeConflictingResult {
		t.Fatalf("conflict maps to %s, want %s", e.Code, api.CodeConflictingResult)
	}
	m, _ := store.Get("m-conflict")
	if m.State != core.StateSuccess {
		t.Fatal("original result was overwritten by the poisoned one")
	}
}

// postBatchJSON POSTs a JSON batch to the batch endpoint.
func postBatchJSON(t *testing.T, url string, req api.BatchSubmitRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+api.V2SubmissionsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestV2BatchRefusesConflictingTerminalStates(t *testing.T) {
	success := attributedRecord("edge-a")
	success.State = core.StateSuccess
	other := attributedRecord("edge-b")
	failure := attributedRecord("edge-a")
	failure.DurationMillis = 30000
	subs := []api.SubmitRequest{
		{MeasurementID: "m-a", Result: "success"},
		{MeasurementID: "m-b", Result: "init"},
		{MeasurementID: "m-a", Result: "failure"},
	}
	records := []results.Measurement{success, other, failure}

	for _, tc := range []struct {
		name string
		id   string // the ID the batch's index 2 refuses
		post func(t *testing.T, url string) *http.Response
	}{
		{"json/submissions", "m-a", func(t *testing.T, url string) *http.Response {
			return postBatchJSON(t, url, api.BatchSubmitRequest{Submissions: subs})
		}},
		{"frames/submissions", "m-a", func(t *testing.T, url string) *http.Response {
			var frames []byte
			for _, sub := range subs {
				frames = wire.AppendSubmissionFrame(frames, (*wire.Submission)(&sub))
			}
			return postRecords(t, url, frames, "")
		}},
		{"json/measurements", "edge-a", func(t *testing.T, url string) *http.Response {
			return postBatchJSON(t, url, api.BatchSubmitRequest{Measurements: records})
		}},
		{"frames/measurements", "edge-a", func(t *testing.T, url string) *http.Response {
			var frames []byte
			for i := range records {
				var err error
				if frames, err = wire.AppendRecordFrame(frames, 0, 0, (*wire.Record)(&records[i])); err != nil {
					t.Fatal(err)
				}
			}
			return postRecords(t, url, frames, "")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, store, index, _ := testServer(t)
			s.AllowAttributed = true
			registerTask(index, "m-a", false)
			registerTask(index, "m-b", false)
			srv := httptest.NewServer(s)
			defer srv.Close()

			out := decodeBatchResponse(t, tc.post(t, srv.URL))
			if out.Accepted != 2 || len(out.Rejected) != 1 {
				t.Fatalf("batch response %+v, want 2 accepted and 1 rejected", out)
			}
			if rej := out.Rejected[0]; rej.Index != 2 || rej.MeasurementID != tc.id || rej.Code != api.CodeConflictingResult {
				t.Fatalf("rejection %+v, want index 2 (%s) %s", rej, tc.id, api.CodeConflictingResult)
			}
			if m, _ := store.Get(tc.id); m.State != core.StateSuccess {
				t.Fatalf("%s is %s, want the first terminal state kept", tc.id, m.State)
			}
			if store.Len() != 2 {
				t.Fatalf("store holds %d records, want 2", store.Len())
			}
		})
	}
}

// TestV2BatchConflictIndexedByLane: a JSON body indexes its two lanes
// separately, so a refusal on the attributed lane names its index there,
// whatever the raw lane before it held.
func TestV2BatchConflictIndexedByLane(t *testing.T) {
	s, store, index, _ := testServer(t)
	s.AllowAttributed = true
	registerTask(index, "m-x", false)
	registerTask(index, "m-y", false)
	srv := httptest.NewServer(s)
	defer srv.Close()

	poisoned := attributedRecord("m-y") // failure
	out := decodeBatchResponse(t, postBatchJSON(t, srv.URL, api.BatchSubmitRequest{
		Submissions: []api.SubmitRequest{
			{MeasurementID: "m-x", Result: "success"},
			{MeasurementID: "m-y", Result: "success"},
		},
		Measurements: []results.Measurement{poisoned},
	}))
	if out.Accepted != 2 || len(out.Rejected) != 1 {
		t.Fatalf("batch response %+v, want 2 accepted and 1 rejected", out)
	}
	if rej := out.Rejected[0]; rej.Index != 0 || rej.MeasurementID != "m-y" || rej.Code != api.CodeConflictingResult {
		t.Fatalf("rejection %+v, want attributed-lane index 0 (m-y) %s", rej, api.CodeConflictingResult)
	}
	if m, _ := store.Get("m-y"); m.State != core.StateSuccess {
		t.Fatalf("m-y is %s, want success kept", m.State)
	}
}
