package collectserver

// The admit and commit stages of the write path (decode → admit → commit →
// observers). The decoders — Accept for the v1 beacon, decodeJSON and
// decodeFrames for the v2 batch — turn bytes into api.SubmitRequest values
// (raw submissions) or results.Measurement values (the attributed federation
// lane) and feed them here.

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"encore/internal/api"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/results"
	"encore/internal/urlpattern"
)

// commitChunk is how many admitted measurements a batch buffers before
// committing them. Small enough to keep a request's footprint independent of
// batch size, large enough to amortize the per-commit shard locks.
const commitChunk = 256

// commitBuffer holds the admitted measurements a batch has not yet committed
// and, beside each, its index in the request's lane, where a refusal at
// commit is reported.
type commitBuffer struct {
	ms    [commitChunk]results.Measurement
	lanes [commitChunk]int
}

// chunkPool recycles the commit buffers, so a request allocates none. Buffers
// go back cleared: an idle one pins no record's strings.
var chunkPool = sync.Pool{New: func() any { return new(commitBuffer) }}

// transport is the identity a request's transport supplies once for every
// submission it carries, exactly as it would for a run of beacons — and what
// follows from it alone, resolved once where the transport is built
// (newTransport), not once per record.
type transport struct {
	ip string
	// region is the geolocated country of ip ("" when unknown); browser the
	// family parsed from the User-Agent.
	region  geo.CountryCode
	browser core.BrowserFamily
	// referer is the already-normalized origin site the transport implies
	// (the Referer header's host); a body-supplied origin overrides it.
	referer string
	// arrival is the server clock when the request arrived. The §8 rate
	// guard windows over it and never over a client-carried timestamp:
	// windowing over a client-controlled clock would let one address reset
	// its rate bucket at will by spacing backdated timestamps a window apart.
	arrival time.Time
}

// newTransport resolves a request's transport identity.
func (s *Server) newTransport(ip, userAgent, referer string, arrival time.Time) transport {
	from := transport{ip: ip, browser: ParseBrowserFamily(userAgent), referer: referer, arrival: arrival}
	if s.Geo != nil && ip != "" {
		if code, err := s.Geo.LookupString(ip); err == nil {
			from.region = code
		}
	}
	return from
}

// admit is the pipeline's one admission stage: it validates a raw submission,
// attributes it to its registered task, applies the rate guard at arrival
// time, and normalizes and timestamps the Measurement to commit. Every lane
// calls it, so the encodings cannot drift semantically. The Measurement's ID
// is the task index's own string, so the copy decoded from the request is
// garbage once the request returns.
//
// A body-supplied origin is normalized exactly like the Referer header, so
// per-origin analysis over a mixed v1/v2 store keys one site one way: URLs
// reduce to their host, bare domains are case/dot-normalized. A client-side
// observation time is honoured when carried (late-uploaded batches keep their
// timeline), clamped to arrival so nothing lands in the future.
func (s *Server) admit(sub api.SubmitRequest, from transport) (results.Measurement, error) {
	state := core.State(sub.Result)
	if err := (core.Submission{MeasurementID: sub.MeasurementID, State: state}).Validate(); err != nil {
		return results.Measurement{}, err
	}
	task, known := s.Tasks.Lookup(sub.MeasurementID)
	if !known {
		// Unknown measurement IDs are most likely crawler noise or
		// poisoning attempts (§8); reject them.
		return results.Measurement{}, fmt.Errorf("%w %q", ErrUnknownMeasurement, sub.MeasurementID)
	}
	if s.Guard != nil {
		if err := s.Guard.Check(from.ip, task.MeasurementID, sub.Result, from.arrival); err != nil {
			return results.Measurement{}, err
		}
	}
	origin := from.referer
	if sub.OriginSite != "" {
		if origin = urlpattern.DomainOf(sub.OriginSite); origin == "" {
			origin = urlpattern.NormalizeHost(sub.OriginSite)
		}
	}
	received := from.arrival
	if sub.ReceivedUnixMillis > 0 {
		if t := time.UnixMilli(sub.ReceivedUnixMillis).UTC(); t.Before(received) {
			received = t
		}
	}
	return results.Measurement{
		MeasurementID:  task.MeasurementID,
		PatternKey:     task.PatternKey,
		TargetURL:      task.TargetURL,
		TaskType:       task.Type,
		State:          state,
		DurationMillis: sub.ElapsedMillis,
		ClientIP:       from.ip,
		Region:         from.region,
		Browser:        from.browser,
		OriginSite:     origin,
		Control:        task.Control,
		Received:       received,
	}, nil
}

// batchSink is the commit stage of one POST /v2/submissions request. The
// decoders hand it raw submissions and attributed records by index; it owns
// the attributed-lane gate, the per-index rejections, the chunked store
// commits and the response. A non-nil *api.Error from any method aborts the
// request; a prefix may already have committed, which is safe to retry whole
// — the store keys records by measurement ID with upgrade-only transitions,
// so re-submitting a committed prefix is idempotent.
type batchSink struct {
	s    *Server
	r    *http.Request
	from transport
	resp api.BatchSubmitResponse
	// pending are the admitted measurements not yet committed; lanes[i] is
	// pending[i]'s index in its lane.
	pending      []results.Measurement
	lanes        []int
	attributedOK bool
}

// gate opens the attributed lane for this request, once: the server must
// allow it (AllowAttributed) and the batch must carry its AttributedToken.
func (k *batchSink) gate() *api.Error {
	if k.attributedOK {
		return nil
	}
	if !k.s.AllowAttributed {
		return api.Errorf(api.CodeAttributionNotAllowed,
			"this collector does not accept pre-attributed measurements")
	}
	// Constant-time comparison so the shared secret cannot be recovered
	// byte-by-byte from response timing.
	if k.s.AttributedToken != "" &&
		subtle.ConstantTimeCompare([]byte(api.BearerToken(k.r)), []byte(k.s.AttributedToken)) != 1 {
		return api.Errorf(api.CodeAttributionNotAllowed,
			"attributed submissions require a valid bearer token")
	}
	k.attributedOK = true
	return nil
}

func (k *batchSink) reject(index int, id string, e *api.Error) {
	k.resp.Rejected = append(k.resp.Rejected, api.RejectedSubmission{
		Index: index, MeasurementID: id, Code: e.Code, Message: e.Message,
	})
}

// raw admits one raw submission against the request's transport identity.
func (k *batchSink) raw(index int, sub api.SubmitRequest) *api.Error {
	m, err := k.s.admit(sub, k.from)
	if err != nil {
		k.reject(index, sub.MeasurementID, submissionError(err))
		return nil
	}
	return k.add(index, m)
}

// attributed takes one federation-lane record: the edge that committed it
// admitted it, so only the gate and validity are re-checked.
func (k *batchSink) attributed(index int, m results.Measurement) *api.Error {
	if e := k.gate(); e != nil {
		return e
	}
	if err := m.Validate(); err != nil {
		k.reject(index, m.MeasurementID,
			&api.Error{Code: api.CodeInvalidSubmission, Message: "invalid measurement record"})
		return nil
	}
	return k.add(index, m)
}

// add buffers the admitted measurement at lane index for the next commit.
func (k *batchSink) add(index int, m results.Measurement) *api.Error {
	k.pending = append(k.pending, m)
	k.lanes = append(k.lanes, index)
	if len(k.pending) >= commitChunk {
		return k.commit()
	}
	return nil
}

// commit writes the buffered measurements to the store in one grouped call.
// A member the store refuses as a conflicting terminal state is rejected at
// its lane index; only what committed counts as accepted.
func (k *batchSink) commit() *api.Error {
	if len(k.pending) == 0 {
		return nil
	}
	stored, err := k.s.Store.AddBatch(k.pending)
	var conflict *results.ConflictError
	switch {
	case errors.As(err, &conflict):
		e := submissionError(err)
		for _, i := range conflict.Indices {
			k.reject(k.lanes[i], k.pending[i].MeasurementID, e)
		}
	case err != nil:
		return api.Errorf(api.CodeInternal, "store commit failed")
	}
	k.resp.Accepted += stored
	clear(k.pending)
	k.pending, k.lanes = k.pending[:0], k.lanes[:0]
	return nil
}
