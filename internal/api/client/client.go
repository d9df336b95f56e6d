// Package client is the Go SDK for Encore's versioned API: a typed Client
// with retry, request batching, gzip compression, and connection reuse, so
// consumers (the client simulator, the load generator, the federation
// forwarder, encore-analyze's remote mode) stop hand-rolling URLs against
// the servers' concrete types.
//
// Transient failures — network errors and 5xx responses — are retried with
// exponential backoff up to Config.Retries attempts; 4xx responses
// (including 429, the abuse guard's rate-limit verdict, which retrying
// would only amplify) return the server's typed *api.Error immediately.
package client

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"encore/internal/api"
	"encore/internal/results"
	"encore/internal/wire"
)

// Config parameterizes a Client. The zero value of every field falls back
// to a sensible default.
type Config struct {
	// HTTPClient is the underlying transport; nil uses a dedicated client
	// with the default transport's connection pooling (keep-alives reuse
	// connections across requests, which is where batch submission gets
	// most of its win over per-beacon handshakes).
	HTTPClient *http.Client
	// Retries is the maximum number of attempts per request (default 3).
	Retries int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt (default 50ms) up to RetryBackoffMax, with jitter — see do.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the doubled backoff (default 5s). Without the
	// cap, the former unchecked `RetryBackoff << attempt` shift overflowed
	// into absurd (or, past 63 shifts, negative) waits at high retry counts.
	RetryBackoffMax time.Duration
	// AuthToken, when set, is sent as an "Authorization: Bearer" header with
	// every request. The attributed federation lane requires it when the
	// upstream was started with an attributed-lane token.
	AuthToken string
	// GzipThreshold is the body size in bytes above which POST bodies are
	// gzip-compressed (default 4096; negative disables compression).
	GzipThreshold int
	// BinaryEncoding switches SubmitBatch and the Measurements export from
	// JSON to the application/x-encore-records frame stream, the same
	// CRC-framed encoding the collector's WAL persists (ForwardRecordFrames
	// always sends it). Responses stay JSON; servers that predate the binary
	// lane answer it with a 400, they do not misparse it. See binary.go.
	BinaryEncoding bool
}

// Client speaks Encore's v1 and v2 API against one server base URL. It is
// safe for concurrent use.
type Client struct {
	base string
	cfg  Config
}

// New creates a Client for the server at base with default configuration.
func New(base string) *Client { return NewWithConfig(base, Config{}) }

// NewWithConfig creates a Client with explicit configuration.
func NewWithConfig(base string, cfg Config) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 5 * time.Second
	}
	if cfg.GzipThreshold == 0 {
		cfg.GzipThreshold = 4096
	}
	return &Client{base: strings.TrimSuffix(base, "/"), cfg: cfg}
}

// ClientMeta optionally impersonates a measurement client on a per-call
// basis: the simulators drive many synthetic clients through one SDK
// instance, and the collection server attributes identity from transport
// headers (X-Forwarded-For, User-Agent, Referer) — exactly the headers a
// reverse proxy would forward for a real browser.
type ClientMeta struct {
	IP        string
	UserAgent string
	Referer   string
}

func (c *Client) apply(req *http.Request, meta *ClientMeta) {
	if c.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.AuthToken)
	}
	if meta == nil {
		return
	}
	if meta.IP != "" {
		req.Header.Set("X-Forwarded-For", meta.IP)
	}
	if meta.UserAgent != "" {
		req.Header.Set("User-Agent", meta.UserAgent)
	}
	if meta.Referer != "" {
		req.Header.Set("Referer", meta.Referer)
	}
}

// retryable reports whether an attempt's outcome warrants another try.
// 429 is deliberately NOT retryable: it is the abuse guard's per-client
// rate-limit verdict (§8), and re-sending with a sub-second backoff would
// triple the load from exactly the clients the guard throttles — callers
// get the typed rate_limited error immediately, like the in-process path.
func retryable(status int, err error) bool {
	if err != nil {
		return true // network-level failure
	}
	return status >= 500
}

// backoffFor computes the pre-attempt delay: api.BackoffDelay's capped,
// full-jittered exponential, raised to the server's Retry-After when the
// previous failure carried one and asked for longer than we would have
// waited.
func (c *Client) backoffFor(attempt int, lastErr error) time.Duration {
	backoff := api.BackoffDelay(c.cfg.RetryBackoff, c.cfg.RetryBackoffMax, attempt, rand.Int64N)
	var apiErr *api.Error
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > backoff {
		backoff = apiErr.RetryAfter
	}
	return backoff
}

// do issues a request built by build, retrying transient failures. The
// builder runs once per attempt so request bodies replay cleanly.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(c.backoffFor(attempt, lastErr)):
			}
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.cfg.HTTPClient.Do(req.WithContext(ctx))
		if err == nil && !retryable(resp.StatusCode, nil) {
			return resp, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = decodeError(resp)
			resp.Body.Close()
		}
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("client: %d attempts failed: %w", c.cfg.Retries, lastErr)
}

// decodeError turns a non-2xx response into an error, preferring the typed
// v2 JSON body and falling back to the terse v1 text. A Retry-After header
// rides along on the typed error so retry scheduling can honor it.
func decodeError(resp *http.Response) error {
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var apiErr api.Error
	if json.Unmarshal(body, &apiErr) == nil && apiErr.Code != "" {
		apiErr.RetryAfter = retryAfter
		return &apiErr
	}
	if code := strings.TrimSpace(string(body)); code != "" {
		return &api.Error{Code: code, RetryAfter: retryAfter}
	}
	return fmt.Errorf("client: HTTP %d", resp.StatusCode)
}

// parseRetryAfter parses a Retry-After header value: delay-seconds or an
// HTTP date. Unparseable or absent values yield zero.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// checkStatus consumes a response expected to be 2xx, returning the typed
// error otherwise.
func checkStatus(resp *http.Response) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return decodeError(resp)
}

// gzipWriters recycles compressors: a fresh gzip.Writer carries ~800 KB of
// deflate state, more than a body just over the threshold saves.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// postJSON POSTs v as JSON (gzip-compressed past the threshold) and decodes
// the 2xx response into out.
func (c *Client) postJSON(ctx context.Context, path string, v, out any, meta *ClientMeta) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	gzipped := c.cfg.GzipThreshold >= 0 && len(payload) > c.cfg.GzipThreshold
	if gzipped {
		var buf bytes.Buffer
		gz := gzipWriters.Get().(*gzip.Writer)
		gz.Reset(&buf)
		_, err := gz.Write(payload)
		if err == nil {
			err = gz.Close()
		}
		gzipWriters.Put(gz)
		if err != nil {
			return err
		}
		payload = buf.Bytes()
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if gzipped {
			req.Header.Set("Content-Encoding", "gzip")
		}
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

// getJSON GETs path and decodes the 2xx response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any, meta *ClientMeta) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
		if err != nil {
			return nil, err
		}
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
	return json.NewDecoder(resp.Body).Decode(out)
}

// SubmitBeacon submits one measurement result over the v1 image-beacon
// surface, exactly as the generated task JavaScript does.
func (c *Client) SubmitBeacon(ctx context.Context, measurementID, result string, elapsedMillis float64, meta *ClientMeta) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, api.BeaconURL(c.base, measurementID, result, elapsedMillis), nil)
		if err != nil {
			return nil, err
		}
		c.apply(req, meta)
		return req, nil
	})
	if err != nil {
		return err
	}
	return checkStatus(resp)
}

// Submit submits one v2 measurement result (a batch of one).
func (c *Client) Submit(ctx context.Context, sub api.SubmitRequest, meta *ClientMeta) error {
	resp, err := c.SubmitBatch(ctx, []api.SubmitRequest{sub}, meta)
	if err != nil {
		return err
	}
	if len(resp.Rejected) > 0 {
		return &api.Error{Code: resp.Rejected[0].Code, Message: resp.Rejected[0].Message}
	}
	return nil
}

// SubmitBatch submits a batch of raw v2 submissions sharing this call's
// client identity. Partial rejections are reported in the response, not as
// an error.
func (c *Client) SubmitBatch(ctx context.Context, subs []api.SubmitRequest, meta *ClientMeta) (*api.BatchSubmitResponse, error) {
	if c.cfg.BinaryEncoding {
		return c.submitBatchBinary(ctx, subs, meta)
	}
	var out api.BatchSubmitResponse
	err := c.postJSON(ctx, api.V2SubmissionsPath, api.BatchSubmitRequest{Submissions: subs}, &out, meta)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Tasks requests structured measurement tasks from a coordination server.
func (c *Client) Tasks(ctx context.Context, req api.TaskRequest, meta *ClientMeta) (*api.TaskResponse, error) {
	path := api.V2TasksPath
	var params []string
	if req.DwellSeconds > 0 {
		params = append(params, fmt.Sprintf("%s=%g", api.ParamDwellSeconds, req.DwellSeconds))
	}
	if req.IncludeScript {
		params = append(params, api.ParamIncludeScript+"=1")
	}
	if len(params) > 0 {
		path += "?" + strings.Join(params, "&")
	}
	var out api.TaskResponse
	if err := c.getJSON(ctx, path, &out, meta); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches the server's v2 health document.
func (c *Client) Health(ctx context.Context) (*api.HealthResponse, error) {
	var out api.HealthResponse
	if err := c.getJSON(ctx, api.V2HealthPath, &out, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// Measurements streams a collection server's measurement export, invoking
// fn for each record in insertion order. fn returning an error stops the
// stream and returns that error. With BinaryEncoding set, the export is
// negotiated (and decoded) as the binary record stream instead of JSONL.
func (c *Client) Measurements(ctx context.Context, fn func(results.Measurement) error) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, c.base+api.V2MeasurementsPath, nil)
		if err != nil {
			return nil, err
		}
		if c.cfg.BinaryEncoding {
			req.Header.Set("Accept", wire.ContentTypeRecords)
		}
		c.apply(req, nil)
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if c.cfg.BinaryEncoding {
		return decodeRecordStream(resp.Body, fn)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var m results.Measurement
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if err := fn(m); err != nil {
			return err
		}
	}
}
