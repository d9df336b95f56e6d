package wire

// Fuzz targets for the untrusted-input surfaces: DecodeRecord (one payload),
// the FrameReader (a whole stream) and DecodeGossip (a peer coordinator's
// anti-entropy payload). The seeded corpus covers the shapes
// the hardening is built against — valid frames, torn tails, truncations,
// CRC bit flips, and length bombs — and the invariants are the decoder's
// contract: never panic, never allocate ahead of bytes actually read, never
// return a payload longer than the input, and decode⇄encode is idempotent
// for anything that decodes at all.

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"encore/internal/core"
)

// fuzzSeedFrames returns the seed corpus: a few valid frames plus each
// adversarial mutation class.
func fuzzSeedFrames() [][]byte {
	rec := Record{
		MeasurementID:  "fuzz-1",
		PatternKey:     "domain:example.com",
		TargetURL:      "http://example.com/favicon.ico",
		TaskType:       core.TaskImage,
		State:          core.StateSuccess,
		DurationMillis: 120,
		ClientIP:       "203.0.113.9",
		Region:         "TR",
		Browser:        core.BrowserSafari,
		OriginSite:     "origin.example.net",
		Control:        true,
		Received:       time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC),
	}
	valid, err := AppendRecordFrame(nil, 7, 7, &rec)
	if err != nil {
		panic(err)
	}
	sub := AppendSubmissionFrame(nil, &Submission{
		MeasurementID: "fuzz-sub", Result: "failure", ElapsedMillis: 5,
		ReceivedUnixMillis: 1400000000000,
	})

	torn := append([]byte(nil), valid[:len(valid)-4]...)
	truncated := append([]byte(nil), valid[:FrameHeaderLen+3]...)
	flipped := append([]byte(nil), valid...)
	flipped[FrameHeaderLen+2] ^= 0x40
	lengthBomb := make([]byte, FrameHeaderLen, FrameHeaderLen+16)
	lengthBomb[0], lengthBomb[1], lengthBomb[2], lengthBomb[3] = 0xff, 0xff, 0xff, 0x7f
	lengthBomb = append(lengthBomb, "not sixteen megabytes"...)
	zeroLen := make([]byte, FrameHeaderLen)

	return [][]byte{
		valid,
		sub,
		append(append([]byte(nil), valid...), sub...), // two-frame stream
		torn,
		truncated,
		flipped,
		lengthBomb,
		zeroLen,
	}
}

// FuzzDecodeRecord fuzzes the record payload decoder with raw payload bytes
// (no frame header; the FrameReader has validated framing by the time
// DecodeRecord runs in production, so this target reaches the decoder with
// inputs framing would have rejected too).
func FuzzDecodeRecord(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		if len(frame) > FrameHeaderLen {
			f.Add(frame[FrameHeaderLen:])
		}
		f.Add(frame) // header bytes as payload: pure garbage
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		cseq, seq, rec, err := DecodeRecord(payload)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decode error %v is not ErrMalformed", err)
			}
			return
		}
		// Whatever decoded must re-encode and decode back to the same values
		// (byte equality is not required: the fuzzer may hand us non-minimal
		// varints the canonical encoder would never produce).
		frame, err := AppendRecordFrame(nil, cseq, seq, &rec)
		if err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		cseq2, seq2, rec2, err := DecodeRecord(frame[FrameHeaderLen:])
		if err != nil {
			t.Fatalf("re-decoding a re-encoded record: %v", err)
		}
		if cseq2 != cseq || seq2 != seq || !rec2.Received.Equal(rec.Received) {
			t.Fatalf("positions/timestamp drifted: (%d,%d,%v) vs (%d,%d,%v)",
				cseq2, seq2, rec2.Received, cseq, seq, rec.Received)
		}
		rec2.Received = rec.Received
		if rec2 != rec {
			t.Fatalf("decode⇄encode not idempotent:\n got %+v\nwant %+v", rec2, rec)
		}
	})
}

// FuzzDecodeBatchStream fuzzes the full streaming path a binary batch body
// takes: FrameReader framing, CRC validation, then kind dispatch into the
// payload decoders — the exact loop the collect server runs on untrusted
// bodies.
func FuzzDecodeBatchStream(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		frames := 0
		for {
			payload, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !Torn(err) {
					t.Fatalf("stream error %v is neither io.EOF nor a framing failure", err)
				}
				break
			}
			// A payload can never be longer than the bytes that carried it.
			if len(payload) > len(data) {
				t.Fatalf("%d-byte payload from a %d-byte stream", len(payload), len(data))
			}
			frames++
			if frames > len(data)/(FrameHeaderLen+1)+1 {
				t.Fatalf("%d frames from %d bytes: framing must consume input", frames, len(data))
			}
			switch PayloadKind(payload) {
			case KindRecord, KindRecordV1:
				_, _, _, _ = DecodeRecord(payload)
			case KindSubmission:
				_, _ = DecodeSubmission(payload)
			}
		}
		// The length-bomb guarantee, stream-wide: the reader's scratch never
		// runs more than one read chunk ahead of the input it was fed.
		if cap(fr.frame) > len(data)+frameReadChunk+FrameHeaderLen {
			t.Fatalf("reader holds %d bytes of scratch for a %d-byte stream", cap(fr.frame), len(data))
		}
	})
}

// FuzzDecodeGossip fuzzes the gossip payload decoder, seeded from the gossip
// tests' payloads: a full exchange, an empty one, a truncation and a length
// bomb. Anything that decodes must survive AppendGossip → DecodeGossip
// unchanged; anything else must be ErrMalformed.
func FuzzDecodeGossip(f *testing.F) {
	full := AppendGossip(nil, sampleGossip())
	f.Add(full)
	f.Add(AppendGossip(nil, &Gossip{From: "x"}))
	f.Add(full[:len(full)/2])
	f.Add(AppendGossipFrame(nil, sampleGossip())) // header bytes as payload
	bomb := AppendGossip(nil, &Gossip{From: "a"})
	bomb = append(bomb[:len(bomb)-2], 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // digest count 2^35
	f.Add(bomb)
	f.Fuzz(func(t *testing.T, payload []byte) {
		g, err := DecodeGossip(payload)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decode error %v is not ErrMalformed", err)
			}
			return
		}
		g2, err := DecodeGossip(AppendGossip(nil, &g))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded gossip: %v", err)
		}
		if !reflect.DeepEqual(g2, g) {
			t.Fatalf("decode⇄encode not idempotent:\n got %+v\nwant %+v", g2, g)
		}
	})
}
