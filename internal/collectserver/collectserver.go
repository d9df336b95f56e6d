// Package collectserver implements Encore's collection server (§5.5): the
// HTTP endpoint clients submit measurement results to. Submissions arrive as
// simple GET requests carrying the measurement ID, the result state, and the
// client-observed elapsed time (Appendix A uses exactly this query-parameter
// scheme so that results can be delivered with a plain image beacon or AJAX
// request). The server geolocates the submitting address, parses the
// browser family from the User-Agent, joins the submission with the task
// metadata registered by the coordination server, and stores a Measurement.
//
// The write path is one synchronous pipeline (pipeline.go): every lane — v1
// beacon, v2 JSON body, v2 binary frame stream, attributed federation records
// — is a decoder over the same admit and commit stages, and a submission is
// acknowledged only after it has committed to the store. Two optional tiers
// observe every commit, both attached before traffic starts:
// AttachAggregator keeps the incremental analysis tier current at the point
// of arrival; AttachWAL makes every committed measurement durable. Close
// shuts the path down in crash-consistent order (flush the forwarder, then
// sync the log); internal/node wires a Server's tiers in order. An
// AbuseGuard applies the §8 anti-poisoning defences inline.
package collectserver

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encore/internal/api"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
	"encore/internal/urlpattern"
)

// ErrUnknownMeasurement is returned (wrapped, with the offending ID) when a
// submission names a measurement ID the task index never registered — most
// likely crawler noise or a poisoning attempt (§8). On the wire it maps to
// 404 unknown_measurement.
var ErrUnknownMeasurement = errors.New("collectserver: unknown measurement id")

// Server is the collection server. It implements http.Handler.
type Server struct {
	Store *results.Store
	Tasks *results.TaskIndex
	Geo   *geo.Registry
	// Now returns the current time; overridable for deterministic tests and
	// simulations. Like the other configuration fields it must be set before
	// the server starts handling requests: the handlers read it without
	// synchronization, so mutating it concurrently with traffic is a data
	// race.
	Now func() time.Time
	// AllowCrossOrigin controls whether CORS headers are emitted so AJAX
	// submissions from any origin succeed; the paper's collector must
	// accept cross-origin submissions.
	AllowCrossOrigin bool
	// Guard applies the §8 anti-poisoning defences (rate limiting and
	// conflicting-result rejection). Nil disables them.
	Guard *AbuseGuard
	// WAL, when non-nil (AttachWAL), is the durability tier behind Store:
	// every committed measurement is appended to its segmented log, and
	// Close syncs it so a clean shutdown leaves everything the server
	// acknowledged on stable storage.
	WAL *results.WAL
	// AllowAttributed accepts pre-attributed measurement records on the
	// batch endpoint's federation lane (BatchSubmitRequest.Measurements).
	// Only an aggregation-tier upstream fed by trusted edge collectors
	// should enable it: attributed records bypass task attribution and the
	// abuse guard, so accepting them from arbitrary clients would hand §8
	// poisoning attackers a direct line into the store. Set it before the
	// server starts handling requests, like the other configuration fields.
	AllowAttributed bool
	// AttributedToken, when non-empty, requires every batch carrying the
	// federation lane to present it as an "Authorization: Bearer" shared
	// secret; batches without it (or with the wrong token) are rejected with
	// the typed 403, exactly like a lane the server never allowed. It
	// hardens AllowAttributed: the attributed lane bypasses task attribution
	// and the abuse guard, so an aggregation tier reachable beyond its own
	// edges needs more than a config bit between it and §8 poisoning.
	AttributedToken string
	// Forwarder, when non-nil, is closed by Close before the WAL is synced,
	// so its final drain ships every acknowledged submission upstream.
	Forwarder interface{ Close() error }
	// LoadProbe overrides where the v2 batch endpoint reads its load
	// depth/capacity from (default: batch requests in flight against
	// maxInflightBatches). Tests use it to exercise the load signal and 503
	// shedding deterministically.
	LoadProbe func() (depth, capacity int)

	// inflight counts POST /v2/submissions requests between admission and
	// their last commit — the producer of the load signal.
	inflight atomic.Int64

	// router dispatches HTTP requests; built lazily on the first request
	// from the configuration fields above (all of which must be set before
	// traffic starts, per their doc comments).
	routerOnce sync.Once
	router     *api.Router
}

// New creates a collection server backed by the given store and task index.
func New(store *results.Store, tasks *results.TaskIndex, g *geo.Registry) *Server {
	return &Server{
		Store:            store,
		Tasks:            tasks,
		Geo:              g,
		Now:              time.Now,
		AllowCrossOrigin: true,
		Guard:            NewAbuseGuard(DefaultAbuseGuardConfig()),
	}
}

// ServeHTTP dispatches through the versioned API router: the v1 beacon
// surface (/submit, /healthz, plus /v1/ aliases) answered exactly as the
// seed server did, and the v2 JSON surface (/v2/submissions, /v2/healthz,
// /v2/measurements). The router is built from the configuration fields on
// the first request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.routerOnce.Do(func() { s.router = s.buildRouter() })
	s.router.ServeHTTP(w, r)
}

// buildRouter mounts the v1 and v2 endpoints.
func (s *Server) buildRouter() *api.Router {
	rt := api.NewRouter()
	if s.AllowCrossOrigin {
		rt.EnableCORS()
	}
	rt.HandleFunc(http.MethodGet, api.V1SubmitPath, s.handleSubmit)
	rt.HandleFunc(http.MethodGet, api.V1HealthPath, s.handleHealth)
	rt.Alias("/v1"+api.V1SubmitPath, api.V1SubmitPath)
	rt.Alias("/v1"+api.V1HealthPath, api.V1HealthPath)
	rt.HandleFunc(http.MethodPost, api.V2SubmissionsPath, s.handleSubmitBatch)
	rt.HandleFunc(http.MethodGet, api.V2HealthPath, s.handleHealthV2)
	rt.HandleFunc(http.MethodGet, api.V2MeasurementsPath, s.handleMeasurements)
	return rt
}

// handleHealth answers the v1 plain-text health check.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok: %d measurements\n", s.Store.Len())
}

// submissionError maps an Accept rejection to its typed API error. The
// mapping is the satellite fix for the seed behaviour of leaking raw
// err.Error() strings as HTTP 400 bodies: guard rejections become 429/409,
// unknown measurement IDs 404, and everything else a generic 400.
func submissionError(err error) *api.Error {
	switch {
	case errors.Is(err, ErrRateLimited):
		return &api.Error{Code: api.CodeRateLimited, Message: "submission rate limit exceeded"}
	case errors.Is(err, ErrConflictingData):
		return &api.Error{Code: api.CodeConflictingResult, Message: "conflicting terminal state already recorded"}
	case errors.Is(err, ErrUnknownMeasurement):
		return &api.Error{Code: api.CodeUnknownMeasurement, Message: "measurement id not registered"}
	default:
		return &api.Error{Code: api.CodeInvalidSubmission, Message: "malformed submission"}
	}
}

// handleSubmit parses one v1 beacon submission.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sub := core.Submission{
		MeasurementID: q.Get("cmh-id"),
		State:         core.State(q.Get("cmh-result")),
		ClientIP:      clientIP(r),
		UserAgent:     r.UserAgent(),
		OriginSite:    urlpattern.DomainOf(r.Referer()),
		Received:      s.Now(),
	}
	if elapsed := q.Get("cmh-elapsed"); elapsed != "" {
		if v, err := strconv.ParseFloat(elapsed, 64); err == nil && v >= 0 {
			sub.DurationMillis = v
		}
	}
	if err := s.Accept(sub); err != nil {
		api.WriteErrorV1(w, submissionError(err))
		return
	}
	// Respond with a 1x1 transparent GIF so image-beacon submissions render
	// harmlessly.
	w.Header().Set("Content-Type", "image/gif")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(transparentGIF)
}

// transparentGIF is a 1x1 transparent GIF used as the submission response.
var transparentGIF = []byte{
	0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x01, 0x00, 0x01, 0x00, 0x80, 0x00,
	0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0x21, 0xf9, 0x04, 0x01, 0x00,
	0x00, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00,
	0x00, 0x02, 0x02, 0x44, 0x01, 0x00, 0x3b,
}

// AttachAggregator wires an incremental aggregation tier into the server's
// store: every measurement that commits updates its pattern×region group in
// the aggregator at the point of arrival, so detection passes read finished
// counters instead of rescanning the store. Call before the server starts
// handling traffic, like the other configuration fields. Attaching to a store
// that already holds measurements does not replay them; use
// Aggregator.Backfill first for that.
func (s *Server) AttachAggregator(agg *results.Aggregator) {
	s.Store.AddObserver(agg)
}

// AttachWAL wires a write-ahead log into the server's store: every
// measurement that commits is appended to the durable log at commit time,
// alongside any attached aggregator. Call before the server starts handling
// traffic, like the other configuration fields. The caller (node.Open, for
// every shipped collector) owns the WAL's lifecycle: the server's Close syncs
// it but does not close it.
func (s *Server) AttachWAL(w *results.WAL) {
	s.WAL = w
	s.Store.AddObserver(w)
}

// Close shuts the server's write path down cleanly, in crash-consistent
// order. Every acknowledged submission has already committed to the store —
// and therefore reached every commit observer — so Close closes the attached
// Forwarder (if any), whose final flush ships those commits upstream and
// persists the acked cursor, then syncs the WAL (if attached) so everything
// the server acknowledged is on stable storage. Safe to call more than once.
// A forwarder close error (records that could not reach the upstream) is
// reported after the WAL sync still ran — durability first, then the error.
func (s *Server) Close() error {
	var fwdErr error
	if s.Forwarder != nil {
		fwdErr = s.Forwarder.Close()
	}
	if s.WAL != nil {
		if err := s.WAL.Sync(); err != nil {
			return err
		}
	}
	return fwdErr
}

// Accept validates a submission and stores the resulting measurement. It is
// the programmatic entry point used by the in-process client simulator, and
// the v1 beacon handler's whole write path: a decoder over admit and a
// one-record commit. The submission's Received time (the server clock when
// zero) is its arrival time, so simulated campaigns rate-limit over
// simulated time.
func (s *Server) Accept(sub core.Submission) error {
	arrival := sub.Received
	if arrival.IsZero() {
		arrival = s.Now()
	}
	m, err := s.admit(
		api.SubmitRequest{MeasurementID: sub.MeasurementID, Result: string(sub.State), ElapsedMillis: sub.DurationMillis},
		s.newTransport(sub.ClientIP, sub.UserAgent, sub.OriginSite, arrival))
	if err != nil {
		return err
	}
	return s.Store.Add(m)
}

// clientIP extracts the submitting client's address, honouring
// X-Forwarded-For when the collector sits behind a reverse proxy.
func clientIP(r *http.Request) string {
	if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
		parts := strings.Split(xff, ",")
		return strings.TrimSpace(parts[0])
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// ParseBrowserFamily maps a User-Agent string to a browser family, mirroring
// the coarse parsing the paper's analysis needs ("Clients ran a variety of
// Web browsers and operating systems").
func ParseBrowserFamily(userAgent string) core.BrowserFamily {
	// Matched with ASCII case folding rather than strings.ToLower: real
	// User-Agent values always contain upper-case letters, so ToLower would
	// copy the string on every submission of the ingest path.
	switch {
	case containsFold(userAgent, "chrome") && !containsFold(userAgent, "edge"):
		return core.BrowserChrome
	case containsFold(userAgent, "firefox"):
		return core.BrowserFirefox
	case containsFold(userAgent, "safari") && !containsFold(userAgent, "chrome"):
		return core.BrowserSafari
	case containsFold(userAgent, "trident"), containsFold(userAgent, "msie"):
		return core.BrowserIE
	default:
		return core.BrowserOther
	}
}

// containsFold reports whether s contains substr under ASCII case folding.
// substr must be lower-case ASCII (true for every browser token above).
func containsFold(s, substr string) bool {
	n := len(substr)
	if n == 0 {
		return true
	}
	for i := 0; i+n <= len(s); i++ {
		j := 0
		for ; j < n; j++ {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != substr[j] {
				break
			}
		}
		if j == n {
			return true
		}
	}
	return false
}

// SubmitURL builds the submission URL a client-side task would request for a
// given collector base URL, measurement ID and state; exposed so tests and
// the client simulator construct exactly what the JavaScript does.
func SubmitURL(collectorBase, measurementID string, state core.State, elapsedMillis float64) string {
	return api.BeaconURL(collectorBase, measurementID, string(state), elapsedMillis)
}
