// Package api defines Encore's versioned wire contract: the typed
// request/response DTOs, error codes, and canonical endpoint paths both
// servers mount and every consumer (the client SDK, the federation
// forwarder, the simulators) speaks.
//
// Two API versions coexist on the same listener. The v1 surface is the
// paper's beacon-era scheme, preserved bit-for-bit: GET /task.js answers
// generated JavaScript, GET /submit answers a 1x1 transparent GIF, and
// errors are terse plain text (Burnett & Feamster, SIGCOMM 2015, §5.3-§5.5
// and Appendix A). The v2 surface is JSON over explicit methods: batched
// POST /v2/submissions for high-volume and federation traffic, structured
// GET /v2/tasks (the v1 JavaScript is one rendering of the same
// assignment), JSON health, and a JSONL measurement export. v1 error
// responses share v2's typed error codes, mapped onto plain-text bodies, so
// no internal error string leaks to the wire on either version.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"encore/internal/results"
)

// Canonical endpoint paths. The bare v1 paths (/task.js, /submit, ...) are
// the paper-era spellings every deployed beacon client uses; the servers
// also mount them under the explicit /v1/ prefix via router aliases.
const (
	V1SubmitPath   = "/submit"
	V1TaskJSPath   = "/task.js"
	V1FramePath    = "/frame.html"
	V1HealthPath   = "/healthz"
	V1CoveragePath = "/coverage.json"

	V2SubmissionsPath  = "/v2/submissions"
	V2TasksPath        = "/v2/tasks"
	V2HealthPath       = "/v2/healthz"
	V2MeasurementsPath = "/v2/measurements"
	// V2GossipPath is the coordinator federation's anti-entropy exchange
	// (binary wire.Gossip frames both ways); see internal/coordfed.
	V2GossipPath = "/v2/gossip"
)

// Error codes carried by v2 JSON error bodies and, as terse plain text, by
// v1 error responses. Each code maps to exactly one HTTP status.
const (
	CodeInvalidSubmission     = "invalid_submission"      // 400
	CodeBadRequest            = "bad_request"             // 400 (malformed JSON, bad encoding)
	CodeUnknownMeasurement    = "unknown_measurement"     // 404
	CodeNotFound              = "not_found"               // 404
	CodeMethodNotAllowed      = "method_not_allowed"      // 405
	CodeConflictingResult     = "conflicting_result"      // 409
	CodeRateLimited           = "rate_limited"            // 429
	CodeAttributionNotAllowed = "attribution_not_allowed" // 403
	CodeUnauthorizedPeer      = "unauthorized_peer"       // 403 (gossip without the shared federation token)
	CodeScheduleMismatch      = "schedule_mismatch"       // 409 (gossip from a peer with a different task set / quorum window)
	CodeOverloaded            = "overloaded"              // 503 (too many batch requests in flight; retry later)
	CodeDegraded              = "degraded"                // 503 (durability lost; durable lane closed)
	CodeInternal              = "internal"                // 500
)

// Health status values carried by HealthResponse.Status. A degraded server
// is up and serving reads and its non-durable lanes, but has lost a
// durability guarantee (a sticky WAL error, a forwarder dropping records)
// that operators must act on.
const (
	StatusOK       = "ok"
	StatusDegraded = "degraded"
)

// StatusForCode maps an error code to its HTTP status.
func StatusForCode(code string) int {
	switch code {
	case CodeUnknownMeasurement, CodeNotFound:
		return http.StatusNotFound
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeConflictingResult, CodeScheduleMismatch:
		return http.StatusConflict
	case CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeAttributionNotAllowed, CodeUnauthorizedPeer:
		return http.StatusForbidden
	case CodeOverloaded, CodeDegraded:
		return http.StatusServiceUnavailable
	case CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// Error is the typed error both API versions report: v2 responses carry it
// as a JSON body, v1 responses carry just the code as plain text. It
// implements error so the client SDK can return it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message,omitempty"`
	// RetryAfter is the server's Retry-After hint, filled in by the client
	// SDK when decoding a 503 (or any response carrying the header). It
	// rides outside the JSON body — the header is the wire representation.
	RetryAfter time.Duration `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message == "" {
		return "api: " + e.Code
	}
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// Status returns the HTTP status the error maps to.
func (e *Error) Status() int { return StatusForCode(e.Code) }

// Errorf builds an Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// WriteError writes e as a v2 JSON error response.
func WriteError(w http.ResponseWriter, e *Error) {
	WriteJSON(w, e.Status(), e)
}

// WriteErrorV1 writes e as a v1 plain-text error response: the status code
// plus the error code as the body. Deliberately terse — v1 clients are image
// beacons that never read bodies, and the code alone leaks nothing internal.
func WriteErrorV1(w http.ResponseWriter, e *Error) {
	http.Error(w, e.Code, e.Status())
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// SubmitRequest is one v2 measurement submission: the client-side fields of
// the paper's beacon query string, as JSON. The submitting client's identity
// (address, browser) always comes from the transport — the request's remote
// address / X-Forwarded-For and User-Agent header — never from the body, so
// a batch carries one client's submissions exactly like a sequence of
// beacons would.
type SubmitRequest struct {
	MeasurementID string  `json:"measurement_id"`
	Result        string  `json:"result"`
	ElapsedMillis float64 `json:"elapsed_millis,omitempty"`
	// OriginSite optionally names the Encore-hosting site, standing in for
	// the Referer header (which three quarters of clients strip, §7).
	OriginSite string `json:"origin_site,omitempty"`
	// ReceivedUnixMillis optionally carries the client-side observation
	// time (Unix milliseconds) — what lets a batch uploaded late (an
	// offline-collected run, a simulator replaying a campaign) keep its
	// original timeline, which the v1 beacon format cannot express. The
	// server clamps values in the future to its own arrival time, so a
	// client cannot place measurements ahead of now; zero means "stamp on
	// arrival", the v1 behaviour.
	ReceivedUnixMillis int64 `json:"received_unix_millis,omitempty"`
}

// BatchSubmitRequest is the body of POST /v2/submissions. Exactly one of the
// two lanes is normally used:
//
//   - Submissions carries raw client submissions; the server attributes each
//     against its task index, applies the abuse guard, and geolocates the
//     submitting address, exactly as the v1 beacon path does.
//   - Measurements carries fully attributed records — a federation edge
//     collector forwarding its committed measurements upstream. The server
//     rejects this lane with attribution_not_allowed unless it was
//     explicitly configured as an aggregation-tier upstream.
type BatchSubmitRequest struct {
	Submissions  []SubmitRequest       `json:"submissions,omitempty"`
	Measurements []results.Measurement `json:"measurements,omitempty"`
}

// RejectedSubmission reports one batch member the server refused, by its
// index within its lane.
type RejectedSubmission struct {
	Index         int    `json:"index"`
	MeasurementID string `json:"measurement_id,omitempty"`
	Code          string `json:"code"`
	Message       string `json:"message,omitempty"`
}

// LoadSignal is the upstream's explicit backpressure advice, carried on
// every POST /v2/submissions response. Instead of silently shedding when it
// saturates, the server tells submitters how loaded it is and how often it
// would like to hear from them; the federation forwarder honors
// SuggestedFlushMillis by widening its batch/flush window, so a slow upstream
// slows its edges down before anything has to be dropped or 503'd.
type LoadSignal struct {
	// QueueDepth is the number of other batch requests the server had in
	// flight (admitted, not yet committed) at response time; QueueCapacity
	// is the fixed bound it sheds against.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity,omitempty"`
	// SuggestedFlushMillis is the flush interval the server asks batching
	// submitters to use; zero means "no advice, keep your own schedule".
	SuggestedFlushMillis int `json:"suggested_flush_millis,omitempty"`
}

// BatchSubmitResponse reports what POST /v2/submissions did with the batch.
// Partial rejection is not an HTTP error: the response is 200 whenever the
// batch itself was well-formed, and Rejected itemizes refused members.
type BatchSubmitResponse struct {
	Accepted int                  `json:"accepted"`
	Rejected []RejectedSubmission `json:"rejected,omitempty"`
	// Load is the server's backpressure advice; see LoadSignal.
	Load *LoadSignal `json:"load,omitempty"`
}

// TaskRequest carries the client hints GET /v2/tasks accepts as query
// parameters. The zero value requests the server defaults.
type TaskRequest struct {
	// DwellSeconds is how long the client expects to stay on the origin
	// page (the scheduler skips tasks that cannot finish in time).
	DwellSeconds float64
	// IncludeScript asks for the rendered v1 JavaScript alongside each
	// structured task, demonstrating that /task.js is one rendering of this
	// response.
	IncludeScript bool
}

// Query parameter names for TaskRequest.
const (
	ParamDwellSeconds  = "dwell-seconds"
	ParamIncludeScript = "script"
)

// ParseTaskRequest extracts a TaskRequest from query parameters.
func ParseTaskRequest(r *http.Request) TaskRequest {
	q := r.URL.Query()
	var req TaskRequest
	if v := q.Get(ParamDwellSeconds); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			req.DwellSeconds = f
		}
	}
	if v := q.Get(ParamIncludeScript); v == "1" || v == "true" {
		req.IncludeScript = true
	}
	return req
}

// Task is the structured form of one assigned measurement task — the same
// assignment /task.js renders as JavaScript.
type Task struct {
	MeasurementID  string `json:"measurement_id"`
	Type           string `json:"type"`
	TargetURL      string `json:"target_url"`
	CachedImageURL string `json:"cached_image_url,omitempty"`
	PatternKey     string `json:"pattern_key"`
	TimeoutMillis  int    `json:"timeout_millis,omitempty"`
	Control        bool   `json:"control,omitempty"`
	// Script is the rendered v1 JavaScript for this task, present only when
	// the request asked for it.
	Script string `json:"script,omitempty"`
}

// TaskResponse is the body of GET /v2/tasks.
type TaskResponse struct {
	Tasks []Task `json:"tasks"`
	// CollectorURL is the base URL submissions for these tasks go to.
	CollectorURL string `json:"collector_url,omitempty"`
}

// HealthResponse is the body of GET /v2/healthz on either server.
type HealthResponse struct {
	// Status is StatusOK or StatusDegraded. A collector degrades when its
	// WAL records a sticky error (acknowledged writes are no longer being
	// persisted; the durable v2 submission lane is closed with
	// CodeDegraded while the best-effort v1 lane and all reads keep
	// serving).
	Status string `json:"status"`
	// WALError is the collector WAL's sticky error, when degraded for that
	// reason.
	WALError string `json:"wal_error,omitempty"`
	// Measurements is the collection store's record count (collector only).
	Measurements int `json:"measurements,omitempty"`
	// TasksServed / TasksAssigned are coordination-side counters.
	TasksServed   uint64 `json:"tasks_served,omitempty"`
	TasksAssigned uint64 `json:"tasks_assigned,omitempty"`
	// Forwarder readings (collector only, when federation is wired). Lag
	// is the records committed but not yet acknowledged upstream (they wait
	// in the WAL; a load indicator, not a loss); DeadLetters is the current
	// dead-letter ring size (upstream-rejected records).
	ForwarderLag         uint64 `json:"forwarder_lag,omitempty"`
	ForwarderDeadLetters int    `json:"forwarder_dead_letters,omitempty"`
	// Origin is this coordinator's federation identity (federated
	// coordinators only). A federated coordinator reports StatusDegraded
	// while a quorum of the coordinator set is unreachable; it keeps
	// assigning tasks from its last merged coverage view throughout.
	Origin string `json:"origin,omitempty"`
	// Peers reports per-peer gossip health (federated coordinators only).
	Peers []PeerHealth `json:"peers,omitempty"`
}

// PeerHealth is one federation peer's gossip state as reported on
// /v2/healthz.
type PeerHealth struct {
	// URL is the peer's base URL as configured.
	URL string `json:"url"`
	// State is "alive", "suspect" (missed rounds, still probed), or "dead"
	// (probing continues at full backoff; a revived peer is re-adopted on
	// its first successful exchange).
	State string `json:"state"`
	// ConsecutiveFailures counts gossip rounds failed since the last
	// successful exchange.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// LagMillis is how long ago the last successful exchange with this peer
	// completed (-1 before the first success).
	LagMillis int64 `json:"lag_millis"`
}

// BearerToken extracts the shared-secret token from an Authorization header
// of the form "Bearer <token>"; it returns "" when the header is absent or
// not a bearer credential. The attributed federation lane authenticates with
// it — see docs/API.md.
func BearerToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return strings.TrimSpace(h[len(prefix):])
	}
	return ""
}

// BeaconURL builds the v1 image-beacon submission URL for a collector base
// URL, exactly as the generated task JavaScript constructs it (Appendix A).
func BeaconURL(collectorBase, measurementID, result string, elapsedMillis float64) string {
	base := strings.TrimSuffix(collectorBase, "/")
	return fmt.Sprintf("%s%s?cmh-id=%s&cmh-result=%s&cmh-elapsed=%.0f",
		base, V1SubmitPath, measurementID, result, elapsedMillis)
}

// TaskJSURL builds the v1 task-script URL for a coordinator base URL.
func TaskJSURL(coordinatorBase string) string {
	return strings.TrimSuffix(coordinatorBase, "/") + V1TaskJSPath
}
