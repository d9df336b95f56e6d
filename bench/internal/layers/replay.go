package layers

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"

	"encore/internal/api"
	apiclient "encore/internal/api/client"
	"encore/internal/results"

	"encore/bench/internal/gen"
	"encore/bench/internal/load"
	"encore/bench/internal/serve"
)

// tier is one in-process server of the replay: its handler, the name of its
// handler span, and the handler span currently open on it. A tier serves one
// request at a time (the replay has one caller, the forwarder one sender), so
// the open span is the parent of every observer call its store makes.
type tier struct {
	name    int32
	handler http.Handler
	open    atomic.Int32
}

// spanKey carries the calling span's ID in a request context, from the replay
// loop through the SDK to the in-process transport.
type spanKey struct{}

// inproc is the RoundTripper that replaces the socket: it serves the request
// on the tier's handler with a response recorder, under a handler span.
type inproc struct {
	tr    *Tracer
	tiers map[string]*tier // by request host
	// send names the root span a request without a calling span gets: the
	// forwarder's own sends, which no replay call caused.
	send int32
}

func (p *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	t := p.tiers[req.URL.Host]
	if t == nil {
		return nil, fmt.Errorf("layers: no in-process tier for host %q", req.URL.Host)
	}
	parent, ok := req.Context().Value(spanKey{}).(int32)
	root := int32(-1)
	if !ok {
		root = p.tr.Begin(p.send, -1)
		parent = root
	}
	id := p.tr.Begin(t.name, parent)
	t.open.Store(id)
	rec := httptest.NewRecorder()
	t.handler.ServeHTTP(rec, req)
	t.open.Store(-1)
	p.tr.End(id)
	p.tr.End(root)
	return rec.Result(), nil
}

// spanObserver wraps a commit observer so that each call is a child span of
// the handler span open on its tier. It implements the richest observer
// interface; the store therefore always calls CommitStream, which hands the
// commit on through the richest interface the wrapped observer has.
type spanObserver struct {
	tr    *Tracer
	name  int32
	tier  *tier
	inner results.CommitObserver
}

func (o *spanObserver) Commit(prev *results.Measurement, cur results.Measurement) {
	id := o.tr.Begin(o.name, o.tier.open.Load())
	o.inner.Commit(prev, cur)
	o.tr.End(id)
}

func (o *spanObserver) CommitStream(commitSeq, insertSeq uint64, prev *results.Measurement, cur results.Measurement) {
	id := o.tr.Begin(o.name, o.tier.open.Load())
	switch in := o.inner.(type) {
	case results.CommitStreamObserver:
		in.CommitStream(commitSeq, insertSeq, prev, cur)
	case results.CommitSeqObserver:
		in.CommitWithSeq(insertSeq, prev, cur)
	default:
		in.Commit(prev, cur)
	}
	o.tr.End(id)
}

// Replay drives the first records of the workload's generated input through
// the real SDK and the real handlers in this process, with no sockets: SDK
// call -> in-process transport -> Server.ServeHTTP -> store -> wrapped
// observers, and for a forwarding topology the real forwarder sending to the
// upstream handler the same way. It returns how many records it replayed.
// With a nil tracer nothing is recorded.
func Replay(ctx context.Context, spec load.Spec, seed uint64, records int, tmpDir string, tr *Tracer) (int, error) {
	cfg := spec.Topology
	if spec.WAL {
		dir, err := os.MkdirTemp(tmpDir, "encore-bench-trace-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
	}

	transport := &inproc{tr: tr, tiers: map[string]*tier{}, send: tr.Name("federation.send")}
	addTier := func(host string, h http.Handler) *tier {
		t := &tier{name: tr.Name(host + ".handler"), handler: h}
		t.open.Store(-1)
		transport.tiers[host] = t
		return t
	}
	// The tiers exist before the stack does, because the observers are
	// wrapped while the stack is being built.
	edge, upstream := addTier("edge", nil), addTier("upstream", nil)
	hc := &http.Client{Transport: transport}

	var observers serve.Observers
	if tr != nil {
		observers = func(tierName, name string, obs results.CommitObserver) results.CommitObserver {
			t := edge
			if tierName == "upstream" {
				t = upstream
			}
			return &spanObserver{tr: tr, name: tr.Name(tierName + "." + name), tier: t, inner: obs}
		}
	}
	stack, err := serve.Build(cfg, observers, func(up http.Handler) (string, *http.Client, error) {
		upstream.handler = up
		return "http://upstream", hc, nil
	})
	if err != nil {
		return 0, err
	}
	edge.handler = stack.Edge
	if stack.Coordinator != nil {
		addTier("coordinator", stack.Coordinator)
	}

	rp := &replayer{
		tr:    tr,
		spec:  spec,
		seed:  seed,
		stack: stack,
		edge: apiclient.NewWithConfig("http://edge", apiclient.Config{
			HTTPClient: hc, BinaryEncoding: spec.Binary,
		}),
		coord:   apiclient.NewWithConfig("http://coordinator", apiclient.Config{HTTPClient: hc}),
		request: tr.Name("gen.request"),
		call:    tr.Name("client.call"),
	}
	if spec.Open {
		err = rp.visits(ctx, records)
	} else {
		err = rp.blocks(ctx, records)
	}
	if err == nil && stack.Forwarder != nil {
		err = stack.Forwarder.Flush(ctx)
	}
	if cerr := stack.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("layers: replaying %s: %w", spec.Name, err)
	}
	if want := rp.ids; stack.Upstream != nil && stack.Upstream.Store.Len() != want {
		return 0, fmt.Errorf("layers: replay of %s left %d of %d measurements upstream", spec.Name, stack.Upstream.Store.Len(), want)
	}
	return rp.records, nil
}

// replayer is the replay's single caller.
type replayer struct {
	tr      *Tracer
	spec    load.Spec
	seed    uint64
	stack   *serve.Stack
	edge    *apiclient.Client
	coord   *apiclient.Client
	request int32
	call    int32
	records int
	ids     int
}

// do runs one SDK call under a request span and a client span; the client
// span's ID travels in the context so the transport can parent the handler
// span to it.
func (rp *replayer) do(ctx context.Context, request int32, fn func(ctx context.Context) error) error {
	id := rp.tr.Begin(rp.call, request)
	err := fn(context.WithValue(ctx, spanKey{}, id))
	rp.tr.End(id)
	return err
}

// blocks replays a closed-loop workload: each block's inits, and Window
// blocks later its terminals, exactly as one of the socket run's callers
// sends them.
func (rp *replayer) blocks(ctx context.Context, records int) error {
	stream := gen.NewStream(rp.seed, rp.spec.BlockSize)
	subs := make([]api.SubmitRequest, rp.spec.BlockSize)
	var window []*gen.Block
	post := func(blk *gen.Block, terminal bool) error {
		request := rp.tr.Begin(rp.request, -1)
		defer rp.tr.End(request)
		blk.Fill(subs, terminal)
		meta := &apiclient.ClientMeta{IP: blk.IP, UserAgent: gen.BatchUserAgent}
		return rp.do(ctx, request, func(ctx context.Context) error {
			resp, err := rp.edge.SubmitBatch(ctx, subs, meta)
			if err == nil && resp.Accepted != len(subs) {
				err = fmt.Errorf("SubmitBatch accepted %d of %d: %+v", resp.Accepted, len(subs), resp.Rejected)
			}
			return err
		})
	}
	for rp.records < records || len(window) > 0 {
		if rp.records < records && len(window) < rp.spec.Window {
			blk := stream.Next()
			var manifest []byte
			if _, err := rp.stack.Register(gen.AppendManifest(manifest, blk)); err != nil {
				return err
			}
			if err := post(blk, false); err != nil {
				return err
			}
			window = append(window, blk)
			rp.ids += len(blk.IDs)
			rp.records += len(blk.IDs)
			continue
		}
		if err := post(window[0], true); err != nil {
			return err
		}
		rp.records += len(window[0].IDs)
		window = window[1:]
	}
	return nil
}

// visits replays the page-view workload back to back, without its schedule:
// the trace is about where a visit's time goes, not about when visits
// arrive.
func (rp *replayer) visits(ctx context.Context, records int) error {
	stream := gen.NewVisitStream(rp.seed, 0, rp.spec.VisitsPerSecond)
	truth := stream.Truth()
	for rp.records < records {
		v := stream.Next()
		meta := &apiclient.ClientMeta{IP: v.IP, UserAgent: v.UserAgent}
		request := rp.tr.Begin(rp.request, -1)
		var tasks *api.TaskResponse
		err := rp.do(ctx, request, func(ctx context.Context) (err error) {
			tasks, err = rp.coord.Tasks(ctx, api.TaskRequest{DwellSeconds: v.Dwell}, meta)
			return err
		})
		for k := 0; err == nil && k < len(tasks.Tasks); k++ {
			t := tasks.Tasks[k]
			err = rp.do(ctx, request, func(ctx context.Context) error {
				return rp.edge.SubmitBeacon(ctx, t.MeasurementID, "init", 0, meta)
			})
			if err != nil {
				break
			}
			state := gen.StateOf(truth.Success(v.TaskDraw(k), t.PatternKey, v.Region))
			err = rp.do(ctx, request, func(ctx context.Context) error {
				return rp.edge.SubmitBeacon(ctx, t.MeasurementID, state, 120, meta)
			})
			rp.records += 2
			rp.ids++
		}
		rp.tr.End(request)
		if err != nil {
			return err
		}
	}
	return nil
}
