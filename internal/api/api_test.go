package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestStatusForCode(t *testing.T) {
	cases := map[string]int{
		CodeInvalidSubmission:     http.StatusBadRequest,
		CodeBadRequest:            http.StatusBadRequest,
		CodeUnknownMeasurement:    http.StatusNotFound,
		CodeNotFound:              http.StatusNotFound,
		CodeMethodNotAllowed:      http.StatusMethodNotAllowed,
		CodeConflictingResult:     http.StatusConflict,
		CodeRateLimited:           http.StatusTooManyRequests,
		CodeAttributionNotAllowed: http.StatusForbidden,
		CodeInternal:              http.StatusInternalServerError,
		"some-unknown-code":       http.StatusBadRequest,
	}
	for code, want := range cases {
		if got := StatusForCode(code); got != want {
			t.Errorf("StatusForCode(%q)=%d, want %d", code, got, want)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := Errorf(CodeRateLimited, "client %s over limit", "1.2.3.4")
	if e.Status() != http.StatusTooManyRequests {
		t.Fatalf("status=%d", e.Status())
	}
	if !strings.Contains(e.Error(), CodeRateLimited) {
		t.Fatalf("Error()=%q", e.Error())
	}
	rec := httptest.NewRecorder()
	WriteError(rec, e)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("written status=%d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type=%q", ct)
	}
	var decoded Error
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Code != CodeRateLimited {
		t.Fatalf("decoded code=%q", decoded.Code)
	}
}

func TestWriteErrorV1PlainText(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteErrorV1(rec, &Error{Code: CodeConflictingResult, Message: "internal detail that must not leak"})
	if rec.Code != http.StatusConflict {
		t.Fatalf("status=%d", rec.Code)
	}
	body := rec.Body.String()
	if strings.TrimSpace(body) != CodeConflictingResult {
		t.Fatalf("v1 body=%q, want just the code", body)
	}
}

func TestBeaconURL(t *testing.T) {
	u := BeaconURL("http://collector.example.org/", "m-3", "failure", 1234)
	for _, want := range []string{"cmh-id=m-3", "cmh-result=failure", "cmh-elapsed=1234"} {
		if !strings.Contains(u, want) {
			t.Fatalf("BeaconURL=%q missing %q", u, want)
		}
	}
	if strings.Contains(u, "org//submit") {
		t.Fatalf("double slash: %q", u)
	}
	if got := TaskJSURL("http://coordinator.example.org/"); got != "http://coordinator.example.org/task.js" {
		t.Fatalf("TaskJSURL=%q", got)
	}
}

func TestParseTaskRequest(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/v2/tasks?dwell-seconds=30.5&script=1", nil)
	req := ParseTaskRequest(r)
	if req.DwellSeconds != 30.5 || !req.IncludeScript {
		t.Fatalf("parsed %+v", req)
	}
	r = httptest.NewRequest(http.MethodGet, "/v2/tasks?dwell-seconds=-4&script=no", nil)
	req = ParseTaskRequest(r)
	if req.DwellSeconds != 0 || req.IncludeScript {
		t.Fatalf("bad params not ignored: %+v", req)
	}
}

func TestBatchSubmitRequestJSONShape(t *testing.T) {
	// The wire field names are the contract; pin them.
	body := `{"submissions":[{"measurement_id":"m-1","result":"success","elapsed_millis":12.5}]}`
	var req BatchSubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Submissions) != 1 || req.Submissions[0].MeasurementID != "m-1" ||
		req.Submissions[0].Result != "success" || req.Submissions[0].ElapsedMillis != 12.5 {
		t.Fatalf("decoded %+v", req)
	}
	out, err := json.Marshal(BatchSubmitResponse{Accepted: 3, Rejected: []RejectedSubmission{
		{Index: 1, MeasurementID: "m-2", Code: CodeUnknownMeasurement},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"accepted":3`, `"index":1`, `"code":"unknown_measurement"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("response JSON %s missing %s", out, want)
		}
	}
}

func TestClientIP(t *testing.T) {
	for _, tc := range []struct {
		name, xff, remote, want string
	}{
		{"ipv6 remote", "", "[2001:db8::1]:443", "2001:db8::1"},
		{"one proxy hop", "198.51.100.2", "10.0.0.1:80", "198.51.100.2"},
		{"multi-hop with spaces", "  198.51.100.2 , 10.1.1.1,  10.2.2.2", "10.0.0.1:80", "198.51.100.2"},
		{"empty forwarded-for", "", "203.0.113.7:51544", "203.0.113.7"},
		{"remote without port", "", "192.0.2.9", "192.0.2.9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodGet, "/v2/tasks", nil)
			r.RemoteAddr = tc.remote
			r.Header.Set("X-Forwarded-For", tc.xff) // an empty value is the same as none
			if got := ClientIP(r); got != tc.want {
				t.Fatalf("ClientIP(xff=%q, remote=%q) = %q, want %q", tc.xff, tc.remote, got, tc.want)
			}
		})
	}
}
