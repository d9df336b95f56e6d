package load

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encore/internal/api"
	apiclient "encore/internal/api/client"
	"encore/internal/geo"

	"encore/bench/internal/gen"
)

// countingTransport counts round trips, so retries the SDK made on its own
// show up as round trips beyond the calls the generator issued.
type countingTransport struct {
	next  http.RoundTripper
	trips *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	return t.next.RoundTrip(r)
}

// newHTTPClient is one worker's connection to one host: a single keep-alive
// connection, as a browser tab or a batching uploader holds.
func newHTTPClient(trips *atomic.Int64) *http.Client {
	return &http.Client{
		Transport: countingTransport{
			next: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				IdleConnTimeout:     time.Minute,
			},
			trips: trips,
		},
		Timeout: time.Minute,
	}
}

// cell is one (pattern, region) tally of what the generator submitted, the
// reference the detector's counts are compared with.
type cell struct {
	pattern string
	region  geo.CountryCode
}

type tally struct{ completed, successes int }

// pool is the closed loop's supply of blocks: generated in seed order by one
// stream, registered with the child, and handed to whichever caller is free
// next.
type pool struct {
	stream *gen.Stream
	mu     sync.Mutex
	ready  []*gen.Block
	// made counts every block generated so far.
	made int
}

// provision tops the pool up to n unsent blocks, but generates nothing past
// the stopAt-th block of the stream, and appends the new blocks' manifest to
// buf.
func (p *pool) provision(n, stopAt int, buf []byte) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.ready) < n && p.made != stopAt {
		b := p.stream.Next()
		buf = gen.AppendManifest(buf, b)
		p.ready = append(p.ready, b)
		p.made++
	}
	return buf
}

// take hands out the next block, or nil when the pool is empty.
func (p *pool) take() *gen.Block {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ready) == 0 {
		return nil
	}
	b := p.ready[0]
	p.ready = p.ready[1:]
	return b
}

// caller is one closed-loop worker: it POSTs a block of inits, and Window
// blocks later the same block's terminal states, from the block's client
// address, waiting for each reply before it sends the next.
type caller struct {
	spec   Spec
	client *apiclient.Client
	pool   *pool
	// window holds blocks whose inits were accepted and whose terminals are
	// still due.
	window []*gen.Block
	subs   []api.SubmitRequest

	// Per-slice accounting, reset by runSlice.
	ops      []op
	records  int64
	finished time.Time

	// Lifetime accounting.
	calls     int64
	ids       int64
	attempted int64
	failed    int64
	sent      map[cell]*tally
	firstErr  error
}

func newCaller(spec Spec, p *pool) *caller {
	return &caller{
		spec: spec,
		pool: p,
		subs: make([]api.SubmitRequest, spec.BlockSize),
		sent: make(map[cell]*tally),
	}
}

// connect points the caller at an edge collector.
func (c *caller) connect(edgeURL string, trips *atomic.Int64) {
	c.client = apiclient.NewWithConfig(edgeURL, apiclient.Config{
		HTTPClient:     newHTTPClient(trips),
		BinaryEncoding: c.spec.Binary,
	})
}

// op is one timed POST: when its reply arrived and how long it took.
type op struct {
	end    time.Time
	millis float64
}

// step makes the caller's next POST: a registered block's inits, or, once
// Window blocks are out, the oldest block's terminals. With nothing left to
// start it returns false, unless finish is set: then it sends the terminals
// still owed first, so every registered measurement ends in a terminal state.
func (c *caller) step(ctx context.Context, finish bool) bool {
	var blk *gen.Block
	terminal := false
	if len(c.window) < c.spec.Window {
		if blk = c.pool.take(); blk != nil {
			c.window = append(c.window, blk)
		}
	}
	if blk == nil {
		if len(c.window) == 0 || (!finish && len(c.window) < c.spec.Window) {
			return false
		}
		blk, terminal = c.window[0], true
		c.window = c.window[1:]
	}
	blk.Fill(c.subs, terminal)
	meta := &apiclient.ClientMeta{IP: blk.IP, UserAgent: gen.BatchUserAgent}
	start := time.Now()
	resp, err := c.client.SubmitBatch(ctx, c.subs, meta)
	end := time.Now()
	c.ops = append(c.ops, op{end, float64(end.Sub(start)) / 1e6})
	c.calls++
	n := int64(len(blk.IDs))
	c.attempted += n
	switch {
	case err != nil:
		c.failed += n
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("SubmitBatch: %w", err)
		}
	case resp.Accepted != len(blk.IDs) || len(resp.Rejected) > 0:
		c.failed += n - int64(resp.Accepted)
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("SubmitBatch accepted %d of %d: %+v", resp.Accepted, n, resp.Rejected)
		}
	}
	c.records += n
	if !terminal {
		c.ids += n
		return true
	}
	for i := range blk.IDs {
		k := cell{gen.PatternKey(int(blk.Pattern[i])), blk.Region}
		t := c.sent[k]
		if t == nil {
			t = &tally{}
			c.sent[k] = t
		}
		t.completed++
		if blk.Success[i] {
			t.successes++
		}
	}
	return true
}

// slice is what one timed stretch of a closed loop measured.
type slice struct {
	records int64
	wall    time.Duration
	sutCPU  time.Duration
	sutSys  time.Duration
	genCPU  time.Duration
	// latMillis holds the stretch's POST latencies in the order the replies
	// arrived, across all callers.
	latMillis []float64
	// dry reports that a caller ran out of registered blocks before the
	// deadline, so the stretch ended early.
	dry bool
}

// add sums another stretch's counts and times into s; the latencies are the
// caller's to merge.
func (s *slice) add(o slice) {
	s.records += o.records
	s.wall += o.wall
	s.sutCPU += o.sutCPU
	s.sutSys += o.sutSys
	s.genCPU += o.genCPU
}

// runSlice runs every caller and measures the stretch. It lasts dur and ends
// early for everyone as soon as one caller runs dry, so no caller idles
// inside a timed stretch. With finish set it has no deadline: it runs until
// every registered block is used and every terminal still owed is sent.
func runSlice(ctx context.Context, child *Child, callers []*caller, dur time.Duration, finish bool) (slice, error) {
	for _, c := range callers {
		c.ops, c.records = c.ops[:0], 0
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	u0, s0, err := child.CPU()
	if err != nil {
		return slice{}, err
	}
	g0 := selfCPU()
	start := time.Now()
	deadline := start.Add(dur)
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for ctx.Err() == nil && (finish || (!stop.Load() && time.Now().Before(deadline))) {
				if !c.step(ctx, finish) {
					stop.Store(true)
					break
				}
			}
			c.finished = time.Now()
		}(c)
	}
	wg.Wait()
	u1, s1, err := child.CPU()
	if err != nil {
		return slice{}, err
	}
	sl := slice{sutCPU: u1 + s1 - u0 - s0, sutSys: s1 - s0, genCPU: selfCPU() - g0, dry: stop.Load()}
	end := start
	for _, c := range callers {
		if c.finished.After(end) {
			end = c.finished
		}
		sl.records += c.records
	}
	sl.latMillis = byArrival(callers)
	sl.wall = end.Sub(start)
	return sl, ctx.Err()
}

// byArrival merges the callers' operations of a stretch into one sequence of
// latencies, in the order the replies arrived: a run of consecutive entries
// is then a span of time, which is what the sliced percentiles assume.
func byArrival(callers []*caller) []float64 {
	var ops []op
	for _, c := range callers {
		ops = append(ops, c.ops...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].end.Before(ops[j].end) })
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.millis
	}
	return out
}

// register tops the pool up to n unsent blocks (see provision for stopAt) and
// registers the new blocks' manifest with the child, as the coordinator would
// have.
func register(ctx context.Context, child *Child, p *pool, n, stopAt int) error {
	manifest := p.provision(n, stopAt, nil)
	if len(manifest) == 0 {
		return nil
	}
	return child.Register(ctx, manifest)
}
