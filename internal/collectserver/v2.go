package collectserver

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"encore/internal/api"
	"encore/internal/results"
	"encore/internal/urlpattern"
	"encore/internal/wire"
)

// The v2 collection surface: batched submissions (JSON or binary), JSON
// health, and a measurement export. The batch endpoint is the API the
// federation forwarder and the client SDK's batching path speak — one POST
// carries what would otherwise be dozens of beacon GETs, and feeds the store
// one call per commit chunk instead of one lock round-trip per submission.

// maxBatchBody bounds a decoded v2 submission body; a batch larger than this
// is a misbehaving client, not a bigger beacon.
const maxBatchBody = 32 << 20

// Backpressure tuning for the v2 batch endpoint. The load is the number of
// batch requests in flight against maxInflightBatches. Advice starts at half
// utilization and ramps the suggested flush interval linearly to
// loadMaxAdviceMillis at saturation; past shedUtilization the endpoint stops
// accepting and answers 503 + Retry-After instead. Advising well before
// shedding is the point: a submitter that honors the load signal slows down
// while the server can still absorb it, and never sees the 503.
const (
	maxInflightBatches    = 4096
	loadAdviceUtilization = 0.5
	loadMaxAdviceMillis   = 2000
	shedUtilization       = 0.9
	shedRetryAfterSeconds = 1
)

// queueLoad reads the batch endpoint's load: from LoadProbe when overridden,
// otherwise the requests in flight against their fixed bound.
func (s *Server) queueLoad() (depth, capacity int) {
	if s.LoadProbe != nil {
		return s.LoadProbe()
	}
	return int(s.inflight.Load()), maxInflightBatches
}

// loadSignal builds the backpressure advice for one response, and reports
// whether the load is past the shedding threshold.
func (s *Server) loadSignal() (sig api.LoadSignal, shed bool) {
	sig.QueueDepth, sig.QueueCapacity = s.queueLoad()
	if sig.QueueCapacity <= 0 {
		return sig, false
	}
	util := float64(sig.QueueDepth) / float64(sig.QueueCapacity)
	if util > loadAdviceUtilization {
		ramp := (util - loadAdviceUtilization) / (1 - loadAdviceUtilization)
		if ramp > 1 {
			ramp = 1
		}
		sig.SuggestedFlushMillis = int(ramp * loadMaxAdviceMillis)
	}
	return sig, util >= shedUtilization
}

// handleSubmitBatch accepts POST /v2/submissions: a JSON BatchSubmitRequest
// or a binary frame stream, either optionally gzip-compressed. Raw
// submissions are admitted exactly like v1 beacons — the batch shares the
// caller's transport identity (remote address, User-Agent), so it carries one
// client's submissions. Every response carries the server's load signal; a
// saturated server sheds with 503 + Retry-After before accepting work. A 200
// means every accepted record has committed.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	// Graceful degradation: once the WAL records a sticky error, this
	// server can no longer keep the durability promise the v2 batch lane
	// carries (federation edges and batching SDKs rely on acknowledged
	// meaning persisted). Refuse with a typed 503 instead of silently
	// accepting writes that will not survive a restart; the best-effort v1
	// beacon lane and every read path keep serving.
	if err := s.walError(); err != nil {
		api.WriteError(w, api.Errorf(api.CodeDegraded,
			"collector degraded: WAL failed (%v); durable submission lane closed", err))
		return
	}
	load, shed := s.loadSignal()
	if shed {
		w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterSeconds))
		api.WriteError(w, api.Errorf(api.CodeOverloaded,
			"%d/%d batch requests in flight; retry later", load.QueueDepth, load.QueueCapacity))
		return
	}
	resp, e := s.ingestBatch(r)
	if e != nil {
		api.WriteError(w, e)
		return
	}
	// Re-read the load after the commit: this batch's work is done, advice
	// should reflect what is still in flight.
	load, _ = s.loadSignal()
	resp.Load = &load
	api.WriteJSON(w, http.StatusOK, resp)
}

// gzipReaders recycles inflate state across compressed batch bodies.
var gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}

// ingestBatch runs one batch request through the pipeline: pick the decoder
// the Content-Type names, feed the sink, commit the tail.
func (s *Server) ingestBatch(r *http.Request) (api.BatchSubmitResponse, *api.Error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	body := io.Reader(r.Body)
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz := gzipReaders.Get().(*gzip.Reader)
		defer gzipReaders.Put(gz)
		if err := gz.Reset(r.Body); err != nil {
			return api.BatchSubmitResponse{}, api.Errorf(api.CodeBadRequest, "bad gzip body")
		}
		body = gz
	}
	chunk := chunkPool.Get().(*[commitChunk]results.Measurement)
	k := batchSink{s: s, r: r, pending: chunk[:0],
		from: s.newTransport(clientIP(r), r.UserAgent(), urlpattern.DomainOf(r.Referer()), s.Now())}
	defer func() {
		clear(k.pending) // an aborted request's uncommitted tail
		chunkPool.Put(chunk)
	}()
	body = io.LimitReader(body, maxBatchBody)
	var e *api.Error
	if namesRecords(r.Header.Get("Content-Type")) {
		e = k.decodeFrames(body)
	} else {
		e = k.decodeJSON(body)
	}
	if e == nil {
		e = k.commit()
	}
	return k.resp, e
}

// decodeJSON is the application/json decoder: one BatchSubmitRequest, whose
// two lanes index their rejections separately. The body names its lanes up
// front, so the attributed gate runs before anything is admitted.
func (k *batchSink) decodeJSON(body io.Reader) *api.Error {
	var req api.BatchSubmitRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return api.Errorf(api.CodeBadRequest, "bad JSON body")
	}
	if len(req.Measurements) > 0 {
		if e := k.gate(); e != nil {
			return e
		}
	}
	for i, sub := range req.Submissions {
		if e := k.raw(i, sub); e != nil {
			return e
		}
	}
	for i, m := range req.Measurements {
		if e := k.attributed(i, m); e != nil {
			return e
		}
	}
	return nil
}

// ForwarderHealth is the structural interface the health endpoint probes an
// attached Forwarder through. federation.Forwarder implements it; the
// methods return builtins so this package needs no federation import.
type ForwarderHealth interface {
	Lag() uint64
	DeadLetterCount() int
}

// walError returns the attached WAL's sticky error, if any.
func (s *Server) walError() error {
	if s.WAL == nil {
		return nil
	}
	return s.WAL.Err()
}

// handleHealthV2 answers GET /v2/healthz with structured health: "ok", or
// "degraded" with the cause, once a sticky WAL error means the collector is
// up but no longer keeping a durability guarantee. The endpoint itself always
// serves — degraded health must be observable, not a 5xx.
func (s *Server) handleHealthV2(w http.ResponseWriter, _ *http.Request) {
	resp := api.HealthResponse{
		Status:       api.StatusOK,
		Measurements: s.Store.Len(),
	}
	if err := s.walError(); err != nil {
		resp.Status = api.StatusDegraded
		resp.WALError = err.Error()
	}
	if fh, ok := s.Forwarder.(ForwarderHealth); ok {
		resp.ForwarderLag = fh.Lag()
		resp.ForwarderDeadLetters = fh.DeadLetterCount()
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleMeasurements streams the store (GET /v2/measurements), the export
// encore-analyze pulls from a live collector. The default body is JSON lines
// — the same format WriteJSONL persists, in insertion order; a client whose
// Accept header names application/x-encore-records gets the binary frame
// stream instead (same records, same order, WAL wire format).
func (s *Server) handleMeasurements(w http.ResponseWriter, r *http.Request) {
	if namesRecords(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", wire.ContentTypeRecords)
		w.WriteHeader(http.StatusOK)
		_ = s.Store.WriteWire(w)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = s.Store.WriteJSONL(w)
}
