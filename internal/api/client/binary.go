package client

// The SDK's binary transport: with Config.BinaryEncoding set, the batch
// lanes ship application/x-encore-records frame streams — the WAL's own
// CRC-framed record encoding — instead of JSON bodies. Requests encode into
// pooled buffers (a steady-state submitter allocates nothing per batch) and
// are never gzip-compressed: the frames are already varint-compact, and the
// gzip round-trip costs more allocations than the bytes it would save.
// Responses stay JSON, so error handling, rejections, and the load signal
// are identical across encodings.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"encore/internal/api"
	"encore/internal/results"
	"encore/internal/wire"
)

// BinaryEncoding reports whether this client ships batches as binary record
// frames.
func (c *Client) BinaryEncoding() bool { return c.cfg.BinaryEncoding }

// postRecords POSTs a pre-framed record stream to the batch endpoint and
// decodes the 2xx JSON response into out.
func (c *Client) postRecords(ctx context.Context, frames []byte, out any, meta *ClientMeta) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.base+api.V2SubmissionsPath, bytes.NewReader(frames))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", wire.ContentTypeRecords)
		c.apply(req, meta)
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// submitRecordFrames POSTs already-framed bytes and returns the batch
// response.
func (c *Client) submitRecordFrames(ctx context.Context, frames []byte, meta *ClientMeta) (*api.BatchSubmitResponse, error) {
	var out api.BatchSubmitResponse
	if err := c.postRecords(ctx, frames, &out, meta); err != nil {
		return nil, err
	}
	return &out, nil
}

// ForwardRecordFrames submits an already-framed record stream on the
// federation lane, verbatim. This is the zero-re-encode forward path: an
// edge collector ships the exact bytes its WAL persisted, no decode, no
// re-serialization. The upstream must have been configured with
// AllowAttributed.
func (c *Client) ForwardRecordFrames(ctx context.Context, frames []byte) (*api.BatchSubmitResponse, error) {
	return c.submitRecordFrames(ctx, frames, nil)
}

// submitBatchBinary is SubmitBatch's binary-encoding path: each submission
// becomes one kind-3 frame in a pooled buffer.
func (c *Client) submitBatchBinary(ctx context.Context, subs []api.SubmitRequest, meta *ClientMeta) (*api.BatchSubmitResponse, error) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	for i := range subs {
		sub := wire.Submission(subs[i])
		*buf = wire.AppendSubmissionFrame(*buf, &sub)
	}
	return c.submitRecordFrames(ctx, *buf, meta)
}

// decodeRecordStream drives fn over every record frame in r, the client side
// of the binary measurement export.
func decodeRecordStream(r io.Reader, fn func(results.Measurement) error) error {
	fr := wire.GetFrameReader(r)
	defer wire.PutFrameReader(fr)
	for {
		payload, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		_, _, rec, err := wire.DecodeRecord(payload)
		if err != nil {
			return err
		}
		if err := fn(results.Measurement(rec)); err != nil {
			return err
		}
	}
}
