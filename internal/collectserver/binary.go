package collectserver

// The binary lane of the v2 collection surface: application/x-encore-records
// is the same CRC-framed record encoding the WAL persists, decoded frame by
// frame straight into the sink without ever materializing the DTO slice the
// JSON lane unmarshals into. Responses stay JSON, so a submitter switches
// encodings without switching protocols.

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"encore/internal/api"
	"encore/internal/results"
	"encore/internal/wire"
)

// namesRecords reports whether a Content-Type or Accept header names the
// binary record stream (parameters ignored). Negotiation is deliberately
// minimal: a client either names the exact media type or gets JSON — the
// default, and the */* answer.
func namesRecords(header string) bool {
	for header != "" {
		part := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			part, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		if strings.TrimSpace(part) == wire.ContentTypeRecords {
			return true
		}
	}
	return false
}

// decodeFrames is the application/x-encore-records decoder.
// The body is one frame stream, a single index space covering both lanes:
// kind-3 submission frames are raw submissions, kind-1/2 record frames are
// attributed records. Wire-level failures — a torn or truncated frame, a CRC
// mismatch, an over-length prefix, a CRC-clean payload that doesn't decode —
// abort the request with a typed 400 naming the frame index, exactly as an
// unparsable JSON body aborts the JSON lane; semantic failures (rate guard,
// validation, a terminal state the store refuses as conflicting) reject
// per-index in the sink and the stream continues.
func (k *batchSink) decodeFrames(body io.Reader) *api.Error {
	fr := wire.GetFrameReader(body)
	defer wire.PutFrameReader(fr)

	for index := 0; ; index++ {
		payload, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		var e *api.Error
		if err == nil {
			switch kind := wire.PayloadKind(payload); kind {
			case wire.KindSubmission:
				var sub wire.Submission
				if sub, err = wire.DecodeSubmission(payload); err == nil {
					e = k.raw(index, api.SubmitRequest(sub))
				}
			case wire.KindRecord, wire.KindRecordV1:
				// A stream names its lanes only as they arrive, so the gate
				// runs at the first record frame — before decoding it: a
				// refused lane answers 403 whatever the frame holds.
				if e = k.gate(); e == nil {
					var rec wire.Record
					if _, _, rec, err = wire.DecodeRecord(payload); err == nil {
						e = k.attributed(index, results.Measurement(rec))
					}
				}
			default:
				err = fmt.Errorf("unknown payload kind %d", kind)
			}
		}
		if err != nil {
			e = api.Errorf(api.CodeBadRequest, "bad record stream at frame %d: %v", index, err)
		}
		if e != nil {
			return e
		}
	}
}
