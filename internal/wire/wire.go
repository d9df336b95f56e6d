// Package wire defines Encore's one binary record encoding: the compact
// CRC-framed format the WAL persists, POST /v2/submissions accepts as
// application/x-encore-records, GET /v2/measurements exports, and the
// federation forwarder ships upstream. One encoder for disk, wire, and
// federation means an edge collector can forward the exact bytes its WAL
// already holds — zero re-encode — and the golden fixtures under testdata/
// pin all three surfaces to the same byte layout so they cannot drift apart
// silently.
//
// A frame is [uint32 payload length LE][uint32 CRC32-IEEE LE][payload]; the
// payload's first byte is its kind. KindRecord (and the legacy KindRecordV1)
// is a fully attributed measurement tagged with its commit-stream position
// and insertion sequence — the WAL's record, byte-for-byte. KindSubmission is
// a raw client submission, the binary twin of api.SubmitRequest, so one
// stream format serves both batch-endpoint lanes. Record and Submission
// mirror results.Measurement and api.SubmitRequest field-for-field, so
// converting between them is a plain Go struct conversion with no copying of
// string data.
//
// The decoder is built for untrusted input: it never allocates more than the
// bytes actually read (a length prefix claiming megabytes buys an attacker
// nothing until the megabytes arrive), validates the CRC before touching the
// payload, and is fuzzed (FuzzDecodeRecord, FuzzDecodeBatchStream) against
// torn, truncated, bit-flipped, and length-bomb frames.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
)

// ContentTypeRecords is the media type of a binary record stream: the
// Content-Type a binary POST /v2/submissions body carries and the Accept
// value that selects the binary GET /v2/measurements export.
const ContentTypeRecords = "application/x-encore-records"

const (
	// FrameHeaderLen is the per-frame framing overhead: a uint32 payload
	// length and a uint32 CRC32-IEEE of the payload, both little-endian.
	FrameHeaderLen = 8
	// MaxFramePayload bounds a frame's claimed payload length; a frame
	// claiming more is corruption (on disk: a torn tail) or an attack (on the
	// wire: a length bomb), never a bigger record.
	MaxFramePayload = 16 << 20
)

// Payload kinds: the first byte of every frame payload. The measurement
// kinds double as the WAL record-format version bytes, which is what makes a
// WAL segment a valid record stream as-is.
const (
	// KindRecordV1 is the legacy measurement record (no commit-stream
	// position; the insertion sequence stands in for it on decode).
	KindRecordV1 byte = 1
	// KindRecord is the current measurement record: commit-stream position,
	// insertion sequence, then the attributed measurement fields.
	KindRecord byte = 2
	// KindSubmission is a raw client submission (the binary form of
	// api.SubmitRequest); it carries no attribution and no positions.
	KindSubmission byte = 3
)

// Record is one fully attributed measurement as encoded on disk and on the
// wire. It mirrors results.Measurement field-for-field (same names, types,
// and order), so results can convert between the two with a plain struct
// conversion; wire stays a leaf package both results and the API tier can
// import.
type Record struct {
	MeasurementID  string
	PatternKey     string
	TargetURL      string
	TaskType       core.TaskType
	State          core.State
	DurationMillis float64
	ClientIP       string
	Region         geo.CountryCode
	Browser        core.BrowserFamily
	OriginSite     string
	Control        bool
	Received       time.Time
}

// Submission is one raw client submission as encoded on the wire. It mirrors
// api.SubmitRequest field-for-field so the SDK converts with a plain struct
// conversion.
type Submission struct {
	MeasurementID      string
	Result             string
	ElapsedMillis      float64
	OriginSite         string
	ReceivedUnixMillis int64
}

// Decode errors. ErrTruncated, ErrFrameLength, and ErrChecksum are framing
// failures — on disk they are the torn tail a crash mid-append leaves (see
// Torn); on the wire they are a malformed or hostile stream. ErrMalformed is
// a payload that passed its CRC but does not decode: a real format error,
// never a crash artifact.
var (
	ErrTruncated   = errors.New("wire: truncated frame")
	ErrFrameLength = errors.New("wire: invalid frame length")
	ErrChecksum    = errors.New("wire: frame checksum mismatch")
	ErrMalformed   = errors.New("wire: malformed payload")
)

// Torn reports whether err is a framing failure of the kind a crashed writer
// leaves at a segment tail — truncation, an impossible length, a checksum
// mismatch. The WAL reader treats these as the expected torn-tail artifact
// and stops; wire consumers treat them as a bad request.
func Torn(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrFrameLength) || errors.Is(err, ErrChecksum)
}

// PayloadKind returns the payload's kind byte (0 for an empty payload).
func PayloadKind(p []byte) byte {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

// FillFrameHeader writes the payload-length and CRC32 header into the
// FrameHeaderLen bytes reserved at the front of frame; frame[FrameHeaderLen:]
// is the payload. It is the single definition of the framing, shared by the
// WAL append path, compaction, and the wire encoders.
func FillFrameHeader(frame []byte) {
	payload := frame[FrameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// BeginFrame reserves a frame header at the end of buf, returning the grown
// buffer and the header's offset. Append the payload, then FinishFrame with
// the same offset. The begin/finish pair lets an encoder build many frames
// back-to-back in one buffer without knowing payload lengths up front.
func BeginFrame(buf []byte) ([]byte, int) {
	mark := len(buf)
	return append(buf, make([]byte, FrameHeaderLen)...), mark
}

// FinishFrame fills in the header of the frame that starts at mark (as
// returned by BeginFrame) now that its payload is complete.
func FinishFrame(buf []byte, mark int) {
	FillFrameHeader(buf[mark:])
}

// AppendRecordFrame appends one complete measurement-record frame (header +
// payload) to buf and returns the grown buffer.
func AppendRecordFrame(buf []byte, commitSeq, seq uint64, r *Record) ([]byte, error) {
	buf, mark := BeginFrame(buf)
	buf, err := AppendRecord(buf, commitSeq, seq, r)
	if err != nil {
		return nil, err
	}
	FinishFrame(buf, mark)
	return buf, nil
}

// AppendSubmissionFrame appends one complete submission frame (header +
// payload) to buf and returns the grown buffer.
func AppendSubmissionFrame(buf []byte, s *Submission) []byte {
	buf, mark := BeginFrame(buf)
	buf = AppendSubmission(buf, s)
	FinishFrame(buf, mark)
	return buf
}

// ---------------------------------------------------------------------------
// Payload encoding. Strings are uvarint-length-prefixed bytes; the timestamp
// uses time.Time.AppendBinary, which preserves wall clock and zone offset so
// a decoded measurement marshals to the exact JSON the original did (the
// bit-for-bit snapshot guarantee the WAL replay and the cross-lane
// equivalence tests both pin).
// ---------------------------------------------------------------------------

// AppendRecord appends the encoded measurement-record payload (KindRecord) to
// buf and returns it. The commit-stream position precedes the insertion
// sequence.
func AppendRecord(buf []byte, commitSeq, seq uint64, r *Record) ([]byte, error) {
	buf = append(buf, KindRecord)
	buf = binary.AppendUvarint(buf, commitSeq)
	buf = binary.AppendUvarint(buf, seq)
	buf = appendString(buf, r.MeasurementID)
	buf = appendString(buf, r.PatternKey)
	buf = appendString(buf, r.TargetURL)
	buf = binary.AppendVarint(buf, int64(r.TaskType))
	buf = appendString(buf, string(r.State))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.DurationMillis))
	buf = appendString(buf, r.ClientIP)
	buf = appendString(buf, string(r.Region))
	buf = binary.AppendVarint(buf, int64(r.Browser))
	buf = appendString(buf, r.OriginSite)
	if r.Control {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return appendTimestamp(buf, r.Received)
}

// appendTimestamp appends a one-byte-length-prefixed binary timestamp.
// time's binary encoding is 15-16 bytes, always a single-byte uvarint; the
// length byte is reserved first and patched, so there is no per-record
// allocation.
func appendTimestamp(buf []byte, t time.Time) ([]byte, error) {
	mark := len(buf)
	buf = append(buf, 0)
	buf, err := t.AppendBinary(buf)
	if err != nil {
		return nil, fmt.Errorf("wire: encoding timestamp: %w", err)
	}
	tlen := len(buf) - mark - 1
	if tlen > 0x7f {
		return nil, fmt.Errorf("wire: encoding timestamp: %d-byte encoding", tlen)
	}
	buf[mark] = byte(tlen)
	return buf, nil
}

// AppendSubmission appends the encoded raw-submission payload
// (KindSubmission) to buf and returns it.
func AppendSubmission(buf []byte, s *Submission) []byte {
	buf = append(buf, KindSubmission)
	buf = appendString(buf, s.MeasurementID)
	buf = appendString(buf, s.Result)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.ElapsedMillis))
	buf = appendString(buf, s.OriginSite)
	return binary.AppendVarint(buf, s.ReceivedUnixMillis)
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ---------------------------------------------------------------------------
// Payload decoding.
// ---------------------------------------------------------------------------

// RecordView is a decoded Record whose text fields still alias the payload:
// decoding one allocates nothing, and a consumer keeping one copy of each
// distinct value (WAL recovery into results.Store) copies out only what is
// new. It is valid until the payload's buffer is reused.
type RecordView struct {
	MeasurementID  []byte
	PatternKey     []byte
	TargetURL      []byte
	TaskType       core.TaskType
	State          core.State
	DurationMillis float64
	ClientIP       []byte
	Region         []byte
	Browser        core.BrowserFamily
	OriginSite     []byte
	Control        bool
	Received       time.Time
}

// Record copies the view into a Record that owns its strings.
func (v *RecordView) Record() Record {
	return Record{
		MeasurementID:  string(v.MeasurementID),
		PatternKey:     string(v.PatternKey),
		TargetURL:      string(v.TargetURL),
		TaskType:       v.TaskType,
		State:          v.State,
		DurationMillis: v.DurationMillis,
		ClientIP:       string(v.ClientIP),
		Region:         geo.CountryCode(v.Region),
		Browser:        v.Browser,
		OriginSite:     string(v.OriginSite),
		Control:        v.Control,
		Received:       v.Received,
	}
}

// DecodeRecord decodes one measurement-record payload (KindRecord or the
// legacy KindRecordV1, whose missing commit-stream position is stood in for
// by the insertion sequence — the best available lower bound, and exact for a
// store that never upgraded in place) into a Record that owns its strings.
func DecodeRecord(p []byte) (commitSeq, seq uint64, r Record, err error) {
	commitSeq, seq, v, err := DecodeRecordView(p)
	if err != nil {
		return 0, 0, r, err
	}
	return commitSeq, seq, v.Record(), nil
}

// DecodeRecordView is DecodeRecord without the string copies: the one parser
// of the record payload.
func DecodeRecordView(p []byte) (commitSeq, seq uint64, r RecordView, err error) {
	if len(p) == 0 || (p[0] != KindRecord && p[0] != KindRecordV1) {
		return 0, 0, r, fmt.Errorf("%w: unsupported record kind", ErrMalformed)
	}
	kind := p[0]
	p = p[1:]
	ok := true
	if kind == KindRecord {
		commitSeq, p, ok = takeUvarint(p)
	}
	if ok {
		seq, p, ok = takeUvarint(p)
	}
	if kind == KindRecordV1 {
		commitSeq = seq
	}
	r.MeasurementID, p, ok = takeBytes(p, ok)
	r.PatternKey, p, ok = takeBytes(p, ok)
	r.TargetURL, p, ok = takeBytes(p, ok)
	var v int64
	if v, p, ok = takeVarint(p, ok); ok {
		r.TaskType = core.TaskType(v)
	}
	var s string
	if s, p, ok = takeString(p, ok); ok {
		r.State = core.State(s)
	}
	r.DurationMillis, p, ok = takeFloat(p, ok)
	r.ClientIP, p, ok = takeBytes(p, ok)
	r.Region, p, ok = takeBytes(p, ok)
	if v, p, ok = takeVarint(p, ok); ok {
		r.Browser = core.BrowserFamily(v)
	}
	r.OriginSite, p, ok = takeBytes(p, ok)
	if ok && len(p) >= 1 {
		r.Control = p[0] == 1
		p = p[1:]
	} else {
		ok = false
	}
	if !ok {
		return 0, 0, r, ErrMalformed
	}
	tlen, p, ok := takeUvarint(p)
	if !ok || uint64(len(p)) != tlen {
		return 0, 0, r, ErrMalformed
	}
	if err := r.Received.UnmarshalBinary(p); err != nil {
		return 0, 0, r, fmt.Errorf("%w: timestamp: %v", ErrMalformed, err)
	}
	return commitSeq, seq, r, nil
}

// DecodeSubmission decodes one raw-submission payload (KindSubmission).
func DecodeSubmission(p []byte) (Submission, error) {
	var s Submission
	if len(p) == 0 || p[0] != KindSubmission {
		return s, fmt.Errorf("%w: unsupported submission kind", ErrMalformed)
	}
	p = p[1:]
	ok := true
	var str string
	if str, p, ok = takeString(p, ok); ok {
		s.MeasurementID = str
	}
	if str, p, ok = takeString(p, ok); ok {
		s.Result = str
	}
	var f float64
	if f, p, ok = takeFloat(p, ok); ok {
		s.ElapsedMillis = f
	}
	if str, p, ok = takeString(p, ok); ok {
		s.OriginSite = str
	}
	var v int64
	if v, p, ok = takeVarint(p, ok); ok {
		s.ReceivedUnixMillis = v
	}
	if !ok || len(p) != 0 {
		return s, ErrMalformed
	}
	return s, nil
}

// PeekCommitSeq extracts the commit-stream position from a measurement-record
// payload without decoding the rest of it — what lets the federation
// forwarder filter a raw WAL tail against its cursor and ship matching frames
// verbatim. For legacy KindRecordV1 payloads the insertion sequence is
// returned, exactly as DecodeRecord would.
func PeekCommitSeq(p []byte) (uint64, bool) {
	if len(p) == 0 || (p[0] != KindRecord && p[0] != KindRecordV1) {
		return 0, false
	}
	v, _, ok := takeUvarint(p[1:])
	return v, ok
}

// takeUvarint consumes a uvarint from p.
func takeUvarint(p []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, false
	}
	return v, p[n:], true
}

// takeVarint consumes a signed varint from p; ok threads the running decode
// state.
func takeVarint(p []byte, ok bool) (int64, []byte, bool) {
	if !ok {
		return 0, p, false
	}
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, p, false
	}
	return v, p[n:], true
}

// takeFloat consumes a fixed 8-byte little-endian float64 from p. Non-finite
// values (NaN, ±Inf) are malformed by decree: JSON cannot express them, so a
// binary payload carrying one would admit a record the JSON lane never could
// — and one NaN duration in the store breaks every later JSON encoding of it
// (encoding/json refuses NaN outright, so WriteJSONL would fail).
func takeFloat(p []byte, ok bool) (float64, []byte, bool) {
	if !ok || len(p) < 8 {
		return 0, p, false
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(p))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, p, false
	}
	return f, p[8:], true
}

// takeBytes consumes a length-prefixed string from p without copying it; ok
// threads the running decode state so a malformed payload short-circuits.
func takeBytes(p []byte, ok bool) ([]byte, []byte, bool) {
	if !ok {
		return nil, p, false
	}
	n, rest, ok := takeUvarint(p)
	if !ok || uint64(len(rest)) < n {
		return nil, p, false
	}
	return rest[:n], rest[n:], true
}

// takeString is takeBytes returning an owned string. Well-known values (the
// three task states) are interned: on the batch-decode hot path the state
// string is the difference between one and two allocations per record.
func takeString(p []byte, ok bool) (string, []byte, bool) {
	b, rest, ok := takeBytes(p, ok)
	if !ok {
		return "", p, false
	}
	return internString(b), rest, true
}

// internString returns the canonical constant for well-known small strings
// (allocation-free: comparing string(b) against a constant does not
// materialize the conversion), falling back to a fresh copy.
func internString(b []byte) string {
	switch {
	case len(b) == 0:
		return ""
	case string(b) == string(core.StateSuccess):
		return string(core.StateSuccess)
	case string(b) == string(core.StateInit):
		return string(core.StateInit)
	case string(b) == string(core.StateFailure):
		return string(core.StateFailure)
	}
	return string(b)
}
