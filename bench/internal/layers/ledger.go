package layers

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"encore/internal/api"
	apiclient "encore/internal/api/client"
	"encore/internal/api/federation"
	"encore/internal/clientsim"
	"encore/internal/collectserver"
	"encore/internal/coordfed"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
	"encore/internal/wire"

	"encore/bench/internal/gen"
	"encore/bench/internal/serve"
	"encore/bench/internal/stat"
)

// chunk is how many operations one timed chunk of the ledger holds. A chunk
// is the ledger's span: one clock read either side of 256 calls, so the
// clock costs a fraction of a nanosecond per call.
const chunk = 256

// ledgerIDs is how many measurement IDs of the workload's input the ledger
// works on: enough for every leaf to see fresh IDs in every chunk.
const ledgerIDs = 1 << 16

// perOp times fn, which performs chunk operations starting at operation
// index base, over n chunks and returns the median chunk's nanoseconds per
// operation. The median, because one collection or one neighbour's burst
// lands in one chunk.
func perOp(n int, fn func(base int)) float64 {
	times := make([]float64, n)
	for c := 0; c < n; c++ {
		start := time.Now()
		fn(c * chunk)
		times[c] = float64(time.Since(start)) / chunk
	}
	return stat.Median(times)
}

// allocsPerOp counts heap allocations per operation of fn, which performs
// ops operations, the way testing.AllocsPerRun does: one goroutine, counted
// across the whole call.
func allocsPerOp(ops int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// discard is an http.ResponseWriter that keeps nothing, so a handler leaf
// times the handler and not a response recorder.
type discard struct{ h http.Header }

func newDiscard() *discard                     { return &discard{h: make(http.Header, 4)} }
func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// canned is a RoundTripper that answers every request at once with a fixed
// body: the SDK leaves measure the SDK, and the forwarder leaves an upstream
// that costs nothing.
type canned struct {
	contentType string
	body        []byte
}

func (c canned) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": {c.contentType}},
		Body:    io.NopCloser(bytes.NewReader(c.body)),
		Request: req,
	}, nil
}

var cannedBatch = canned{"application/json", []byte(`{"accepted":0}` + "\n")}

// env is the ledger's material: records made from the head of the
// workload's generated input, and the pieces every leaf needs.
type env struct {
	ctx context.Context
	tmp string
	ids []string
	ips []string
	// inits and terms are each ID's stored record after its init and after
	// its terminal submission, as the collector's prepare step builds them.
	inits, terms []results.Measurement
	// uniform is terms with the pattern drawn uniformly instead of by Zipf.
	uniform []results.Measurement
	geo     *geo.Registry
	now     time.Time
	m       map[string]float64
}

func newEnv(ctx context.Context, seed uint64, tmp string) *env {
	e := &env{ctx: ctx, tmp: tmp, geo: geo.NewRegistry(1), now: time.Now(), m: map[string]float64{}}
	stream := gen.NewStream(seed, chunk)
	for len(e.ids) < ledgerIDs {
		b := stream.Next()
		for i, id := range b.IDs {
			p := int(b.Pattern[i])
			m := results.Measurement{
				MeasurementID: id, PatternKey: gen.PatternKey(p), TargetURL: gen.PatternURL(p),
				TaskType: core.TaskImage, State: core.StateInit, ClientIP: b.IP, Region: b.Region,
				Browser: core.BrowserChrome, Received: e.now,
			}
			e.ids, e.ips = append(e.ids, id), append(e.ips, b.IP)
			e.inits = append(e.inits, m)
			m.State, m.DurationMillis = core.StateFailure, b.Elapsed[i]
			if b.Success[i] {
				m.State = core.StateSuccess
			}
			e.terms = append(e.terms, m)
			u := m
			u.PatternKey = gen.PatternKey(len(e.ids) % gen.Patterns)
			e.uniform = append(e.uniform, u)
		}
	}
	return e
}

// index returns a TaskIndex holding every ledger ID.
func (e *env) index() *results.TaskIndex {
	ti := results.NewTaskIndex()
	for i, id := range e.ids {
		ti.Register(core.Task{MeasurementID: id, Type: core.TaskImage, TargetURL: e.terms[i].TargetURL, PatternKey: e.terms[i].PatternKey})
	}
	return ti
}

// collector returns a collection server on a bare store (no observers) that
// knows every ledger ID, with the rate limit lifted as the socket run has it.
func (e *env) collector() *collectserver.Server {
	srv := collectserver.New(results.NewStore(), e.index(), e.geo)
	srv.Guard = serve.OpenGuard()
	return srv
}

func (e *env) dir(name string) string { return filepath.Join(e.tmp, name) }

// subs returns the raw submissions of n IDs starting at base, as inits or as
// terminals.
func (e *env) subs(base, n int, terminal bool) []api.SubmitRequest {
	out := make([]api.SubmitRequest, n)
	for i := range out {
		m := e.terms[(base+i)%len(e.ids)]
		out[i] = api.SubmitRequest{MeasurementID: m.MeasurementID, Result: "init"}
		if terminal {
			out[i].Result, out[i].ElapsedMillis = string(m.State), m.DurationMillis
		}
	}
	return out
}

// Ledger runs every leaf on records made from the seed's input and returns
// the metrics by name. tmp is where the WAL leaves write.
func Ledger(ctx context.Context, seed uint64, tmp string) (map[string]float64, error) {
	dir, err := os.MkdirTemp(tmp, "encore-bench-ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := newEnv(ctx, seed, dir)
	for _, leaf := range []func(*env) error{
		leafClient, leafAPI, leafCoordinator, leafScheduler, leafGossip,
		leafCollectorSingles, leafCollectorBatches, leafWire,
		leafStore, leafAggregator, leafWAL, leafExport, leafForwarder, leafInference,
	} {
		if err := leaf(e); err != nil {
			return nil, fmt.Errorf("layers: leaf ledger: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return e.m, nil
}

// leafClient times the SDK alone, against a transport that answers at once.
func leafClient(e *env) error {
	gif := canned{"image/gif", []byte("GIF89a")}
	beacon := apiclient.NewWithConfig("http://sdk", apiclient.Config{HTTPClient: &http.Client{Transport: gif}})
	var err error
	e.m["client.beacon_ns"] = perOp(16, func(base int) {
		for i := 0; i < chunk && err == nil; i++ {
			err = beacon.SubmitBeacon(e.ctx, e.ids[base+i], "success", 120, &apiclient.ClientMeta{IP: e.ips[base+i]})
		}
	})
	for _, lane := range []struct {
		name   string
		size   int
		binary bool
	}{{"client.encode_json16_ns_per_rec", 16, false}, {"client.encode_bin256_ns_per_rec", 256, true}} {
		c := apiclient.NewWithConfig("http://sdk", apiclient.Config{HTTPClient: &http.Client{Transport: cannedBatch}, BinaryEncoding: lane.binary})
		subs := e.subs(0, lane.size, true)
		e.m[lane.name] = perOp(16, func(int) {
			for done := 0; done < chunk && err == nil; done += lane.size {
				_, err = c.SubmitBatch(e.ctx, subs, &apiclient.ClientMeta{IP: e.ips[0]})
			}
		})
	}
	return err
}

// leafAPI times the router and the JSON response writer.
func leafAPI(e *env) error {
	rt := api.NewRouter()
	rt.EnableCORS()
	rt.HandleFunc(http.MethodGet, "/noop", func(http.ResponseWriter, *http.Request) {})
	req := httptest.NewRequest(http.MethodGet, "/noop", nil)
	w := newDiscard()
	e.m["api.route_ns"] = perOp(64, func(int) {
		for i := 0; i < chunk; i++ {
			rt.ServeHTTP(w, req)
		}
	})
	resp := api.BatchSubmitResponse{Accepted: 16, Load: &api.LoadSignal{}}
	e.m["api.write_json_ns"] = perOp(64, func(int) {
		for i := 0; i < chunk; i++ {
			api.WriteJSON(w, http.StatusOK, resp)
		}
	})
	return nil
}

// leafCoordinator times the coordination server's two task routes and the
// call both delegate to, on the deployment the page-view workload runs.
func leafCoordinator(e *env) error {
	sim := clientsim.BuildStack(clientsim.StackConfig{Seed: 1})
	coord := sim.Coordinator
	w := newDiscard()
	requests := func(path string) []*http.Request {
		reqs := make([]*http.Request, chunk)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, path, nil)
			reqs[i].Header.Set("X-Forwarded-For", e.ips[i])
			reqs[i].Header.Set("User-Agent", gen.BatchUserAgent)
		}
		return reqs
	}
	for name, path := range map[string]string{
		"coordserver.tasks_handler_ns":  api.V2TasksPath + "?dwell-seconds=25",
		"coordserver.taskjs_handler_ns": api.V1TaskJSPath,
	} {
		reqs := requests(path)
		e.m[name] = perOp(16, func(int) {
			for _, r := range reqs {
				coord.ServeHTTP(w, r)
			}
		})
	}
	client := scheduler.ClientInfo{Region: "US", Browser: core.BrowserChrome, ExpectedDwellSeconds: 25}
	e.m["coordserver.assign_register_ns"] = perOp(16, func(int) {
		for i := 0; i < chunk; i++ {
			coord.AssignAndRegister(client, e.now)
		}
	})
	return nil
}

// balanceTaskSet is a task set whose focus pattern only Chrome can measure,
// so every other browser's pick goes through the per-region least-covered
// index: the path whose spread-at-most-one invariant the ledger checks.
func balanceTaskSet() (*pipeline.TaskSet, []string) {
	ts := pipeline.NewTaskSet()
	ts.Add(pipeline.Candidate{PatternKey: "domain:aaa-script-only.example", Type: core.TaskScript,
		TargetURL: "http://aaa-script-only.example/app.js", Strict: true})
	var balanced []string
	for i := 1; i <= 8; i++ {
		d := fmt.Sprintf("balance%02d.example", i)
		ts.Add(pipeline.Candidate{PatternKey: "domain:" + d, Type: core.TaskImage,
			TargetURL: "http://" + d + "/favicon.ico", Strict: true})
		balanced = append(balanced, "domain:"+d)
	}
	return ts, balanced
}

func balanceScheduler(seed uint64) (*scheduler.Scheduler, []string) {
	cfg := scheduler.DefaultConfig()
	cfg.QuorumWindow = 1000 * time.Hour // pins the focus to the first pattern
	cfg.Seed = seed
	ts, balanced := balanceTaskSet()
	return scheduler.New(ts, cfg), balanced
}

// leafScheduler times assignment and the coverage CRDT.
func leafScheduler(e *env) error {
	sched, balanced := balanceScheduler(1)
	regions := e.geo.Countries()
	client := func(i int) scheduler.ClientInfo {
		return scheduler.ClientInfo{Region: regions[i%len(regions)].Code, Browser: core.BrowserFirefox, ExpectedDwellSeconds: 25}
	}
	e.m["scheduler.assign_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk; i++ {
			sched.Assign(client(base+i), e.now)
		}
	})
	e.m["scheduler.assign_allocs"] = allocsPerOp(4096, func() {
		for i := 0; i < 4096; i++ {
			sched.Assign(client(i), e.now)
		}
	})
	e.m["scheduler.pick_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk; i++ {
			sched.PickCandidate(client(base+i), e.now)
		}
	})
	spread := 0
	for _, rc := range sched.CoverageSnapshot() {
		lo, hi := int(^uint(0)>>1), 0
		for _, p := range balanced {
			n := rc.Assigned[p]
			lo, hi = min(lo, n), max(hi, n)
		}
		spread = max(spread, hi-lo)
	}
	e.m["scheduler.coverage_spread"] = float64(spread)

	peer, _ := balanceScheduler(2)
	for i := 0; i < 4096; i++ {
		peer.Assign(client(i), e.now)
	}
	state := peer.LocalCoverage()
	merges := make([]float64, 32)
	for i := range merges {
		state.Version++
		start := time.Now()
		sched.MergeCoverage("peer", state)
		merges[i] = float64(time.Since(start)) / 1e3
	}
	e.m["scheduler.merge_coverage_us"] = stat.Median(merges)
	return nil
}

// leafGossip times one anti-entropy round between two coordinators over
// loopback HTTP, and the gossip codec on its own.
func leafGossip(e *env) error {
	type node struct {
		sched *scheduler.Scheduler
		fed   *coordfed.Federation
		srv   *httptest.Server
	}
	nodes := make([]*node, 2)
	for i := range nodes {
		n := &node{}
		n.sched, _ = balanceScheduler(uint64(i + 1))
		n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { n.fed.Handler()(w, r) }))
		defer n.srv.Close()
		nodes[i] = n
	}
	for i, n := range nodes {
		fed, err := coordfed.New(coordfed.Config{
			Origin: fmt.Sprintf("bench-c%d", i), Scheduler: n.sched,
			Peers: []string{nodes[1-i].srv.URL}, Seed: uint64(100 + i),
		})
		if err != nil {
			return err
		}
		defer fed.Close()
		n.fed = fed
	}
	client := scheduler.ClientInfo{Region: "US", Browser: core.BrowserFirefox, ExpectedDwellSeconds: 5}
	rounds := make([]float64, 64)
	for i := range rounds {
		nodes[0].sched.Assign(client, e.now)
		start := time.Now()
		nodes[0].fed.RunRound(e.ctx)
		rounds[i] = float64(time.Since(start)) / 1e3
	}
	if st := nodes[0].fed.Stats(); st.Failures > 0 {
		return fmt.Errorf("%d of %d gossip exchanges failed", st.Failures, st.Rounds)
	}
	e.m["coordfed.round_us"] = stat.Median(rounds)

	g := wire.Gossip{From: "bench-c0", Anchor: e.now.UnixNano(), ScheduleHash: 42,
		Digest: []wire.GossipDigest{{Origin: "bench-c0", Version: 9}, {Origin: "bench-c1", Version: 7}, {Origin: "bench-c2", Version: 3}}}
	delta := wire.GossipDelta{Origin: "bench-c0", Version: 9}
	for _, c := range e.geo.Countries()[:20] {
		delta.Regions = append(delta.Regions, wire.GossipRegion{Region: c.Code, Counts: []int64{0, 3, 3, 2, 3, 3, 2, 3, 3}})
	}
	g.Deltas = []wire.GossipDelta{delta}
	var buf []byte
	var err error
	e.m["wire.gossip_roundtrip_ns"] = perOp(16, func(int) {
		for i := 0; i < chunk && err == nil; i++ {
			buf = wire.AppendGossipFrame(buf[:0], &g)
			_, err = wire.DecodeGossip(buf[wire.FrameHeaderLen:])
		}
	})
	return err
}

// leafCollectorSingles times the per-submission path of the collector: the
// beacon route, Accept, and the steps Accept is made of.
func leafCollectorSingles(e *env) error {
	w := newDiscard()
	srv := e.collector()
	reqs := make([]*http.Request, chunk)
	var failed error
	e.m["collectserver.beacon_handler_ns"] = perOpPrepared(32, func(base int) {
		for i := range reqs {
			r := httptest.NewRequest(http.MethodGet, api.BeaconURL("", e.ids[base+i], "init", 0), nil)
			r.Header.Set("X-Forwarded-For", e.ips[base+i])
			r.Header.Set("User-Agent", gen.BatchUserAgent)
			reqs[i] = r
		}
	}, func(int) {
		for _, r := range reqs {
			srv.ServeHTTP(w, r)
		}
	})
	if got := srv.Store.Len(); got != 32*chunk {
		return fmt.Errorf("beacon leaf stored %d of %d submissions", got, 32*chunk)
	}

	srv = e.collector()
	sub := func(i int, state core.State) core.Submission {
		return core.Submission{MeasurementID: e.ids[i], State: state, ClientIP: e.ips[i], UserAgent: gen.BatchUserAgent}
	}
	e.m["collectserver.accept_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk && failed == nil; i++ {
			failed = srv.Accept(sub(base+i, core.StateInit))
		}
	})
	e.m["collectserver.accept_allocs"] = allocsPerOp(4096, func() {
		for i := 0; i < 4096 && failed == nil; i++ {
			failed = srv.Accept(sub(64*chunk+i, core.StateInit))
		}
	})
	if failed != nil {
		return failed
	}

	guard := serve.OpenGuard()
	e.m["collectserver.guard_check_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk && failed == nil; i++ {
			failed = guard.Check(e.ips[base+i], e.ids[base+i], "success", e.now)
		}
	})
	e.m["geo.lookup_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk && failed == nil; i++ {
			_, failed = e.geo.LookupString(e.ips[base+i])
		}
	})
	ti := results.NewTaskIndex()
	e.m["results.taskindex_register_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk; i++ {
			m := &e.terms[base+i]
			ti.Register(core.Task{MeasurementID: m.MeasurementID, Type: core.TaskImage, TargetURL: m.TargetURL, PatternKey: m.PatternKey})
		}
	})
	missing := 0
	e.m["results.taskindex_lookup_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk; i++ {
			if _, ok := ti.Lookup(e.ids[base+i]); !ok {
				missing++
			}
		}
	})
	if missing > 0 {
		return fmt.Errorf("task index lost %d registrations", missing)
	}
	return failed
}

// perOpPrepared is perOp with an untimed preparation step before each chunk.
func perOpPrepared(n int, prepare, fn func(base int)) float64 {
	times := make([]float64, n)
	for c := 0; c < n; c++ {
		prepare(c * chunk)
		start := time.Now()
		fn(c * chunk)
		times[c] = float64(time.Since(start)) / chunk
	}
	return stat.Median(times)
}

// leafCollectorBatches times the batch route in both encodings, on a bare
// store: body decode, prepare per member, one grouped store write.
func leafCollectorBatches(e *env) error {
	for _, lane := range []struct {
		name   string
		size   int
		binary bool
	}{{"collectserver.json16", 16, false}, {"collectserver.bin256", 256, true}} {
		srv := e.collector()
		w := newDiscard()
		body := func(base int) []byte {
			subs := e.subs(base, lane.size, false)
			if !lane.binary {
				b, _ := json.Marshal(api.BatchSubmitRequest{Submissions: subs}) // plain structs always marshal
				return b
			}
			var b []byte
			for i := range subs {
				ws := wire.Submission(subs[i])
				b = wire.AppendSubmissionFrame(b, &ws)
			}
			return b
		}
		post := func(b []byte, ip string) {
			r := httptest.NewRequest(http.MethodPost, api.V2SubmissionsPath, bytes.NewReader(b))
			r.Header.Set("X-Forwarded-For", ip)
			r.Header.Set("User-Agent", gen.BatchUserAgent)
			if lane.binary {
				r.Header.Set("Content-Type", wire.ContentTypeRecords)
			} else {
				r.Header.Set("Content-Type", "application/json")
			}
			srv.ServeHTTP(w, r)
		}
		var bodies [][]byte
		e.m[lane.name+"_handler_ns_per_rec"] = perOpPrepared(32, func(base int) {
			bodies = bodies[:0]
			for done := 0; done < chunk; done += lane.size {
				bodies = append(bodies, body(base+done))
			}
		}, func(base int) {
			for _, b := range bodies {
				post(b, e.ips[base])
			}
		})
		if got := srv.Store.Len(); got != 32*chunk {
			return fmt.Errorf("%s leaf stored %d of %d submissions", lane.name, got, 32*chunk)
		}
		const ops = 4096
		bodies = bodies[:0]
		for done := 0; done < ops; done += lane.size {
			bodies = append(bodies, body(32*chunk+done))
		}
		e.m[lane.name+"_allocs_per_rec"] = allocsPerOp(ops, func() {
			for _, b := range bodies {
				post(b, e.ips[0])
			}
		})
	}
	return nil
}

// leafWire times the frame codec both ways for both payload kinds.
func leafWire(e *env) error {
	subs := make([]wire.Submission, len(e.ids))
	for i, s := range e.subs(0, len(e.ids), true) {
		subs[i] = wire.Submission(s)
	}
	var buf []byte
	e.m["wire.append_submission_ns"] = perOp(64, func(base int) {
		buf = buf[:0]
		for i := 0; i < chunk; i++ {
			buf = wire.AppendSubmissionFrame(buf, &subs[base+i])
		}
	})
	e.m["wire.bytes_per_submission"] = float64(len(buf)) / chunk
	stream := append([]byte(nil), buf...)
	var err error
	var payloads [][]byte
	e.m["wire.frame_next_ns"] = perOp(64, func(int) {
		fr := wire.GetFrameReader(bytes.NewReader(stream))
		payloads = payloads[:0]
		for {
			p, ferr := fr.Next()
			if ferr != nil {
				if ferr != io.EOF {
					err = ferr
				}
				break
			}
			payloads = append(payloads, p)
		}
		wire.PutFrameReader(fr)
	})
	// Next's payloads alias the reader's buffer; decode from private copies.
	payloads = payloads[:0]
	for off := 0; off < len(stream); {
		n := int(uint32(stream[off]) | uint32(stream[off+1])<<8 | uint32(stream[off+2])<<16 | uint32(stream[off+3])<<24)
		payloads = append(payloads, stream[off+wire.FrameHeaderLen:off+wire.FrameHeaderLen+n])
		off += wire.FrameHeaderLen + n
	}
	if len(payloads) != chunk {
		return fmt.Errorf("frame stream holds %d frames, want %d", len(payloads), chunk)
	}
	decode := func() {
		for _, p := range payloads {
			if _, derr := wire.DecodeSubmission(p); derr != nil {
				err = derr
			}
		}
	}
	e.m["wire.decode_submission_ns"] = perOp(64, func(int) { decode() })
	e.m["wire.decode_allocs_per_rec"] = allocsPerOp(16*chunk, func() {
		for i := 0; i < 16; i++ {
			decode()
		}
	})

	var frames [][]byte
	e.m["wire.append_record_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk && err == nil; i++ {
			buf, err = wire.AppendRecordFrame(buf[:0], uint64(base+i+1), uint64(base+i+1), (*wire.Record)(&e.terms[base+i]))
		}
	})
	for i := 0; i < chunk && err == nil; i++ {
		var f []byte
		f, err = wire.AppendRecordFrame(nil, uint64(i+1), uint64(i+1), (*wire.Record)(&e.terms[i]))
		frames = append(frames, f[wire.FrameHeaderLen:])
	}
	e.m["wire.decode_record_ns"] = perOp(64, func(int) {
		for _, p := range frames {
			if _, _, _, derr := wire.DecodeRecord(p); derr != nil {
				err = derr
			}
		}
	})
	return err
}

// leafStore times the sharded store on its own.
func leafStore(e *env) error {
	store := results.NewStore()
	var err error
	e.m["results.store_insert_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk && err == nil; i++ {
			err = store.Add(e.inits[base+i])
		}
	})
	e.m["results.store_upgrade_ns"] = perOp(64, func(base int) {
		for i := 0; i < chunk && err == nil; i++ {
			err = store.Add(e.terms[base+i])
		}
	})
	e.m["results.store_addbatch256_ns_per_rec"] = perOp(64, func(base int) {
		if _, berr := store.AddBatch(e.inits[64*chunk+base : 64*chunk+base+chunk]); berr != nil {
			err = berr
		}
	})
	const shards = 32
	var counts [shards]int
	for _, id := range e.ids {
		counts[results.ShardHash(id)%shards]++
	}
	e.m["results.store_shard_imbalance"] = float64(max(counts[0], sliceMax(counts[1:]))) * shards / float64(len(e.ids))
	return err
}

func sliceMax(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

// leafAggregator times the analysis tier's commit on the workload's Zipf
// stream and on a uniform one; the gap is what the hot cells cost.
func leafAggregator(e *env) error {
	for name, ms := range map[string][]results.Measurement{
		"results.agg_commit_ns":         e.terms,
		"results.agg_commit_uniform_ns": e.uniform,
	} {
		agg := serve.NewAggregator()
		e.m[name] = perOp(128, func(base int) {
			for i := 0; i < chunk; i++ {
				agg.Commit(nil, ms[base+i])
			}
		})
	}
	return nil
}

// leafWAL times the durability tier: appends without fsync, an explicit
// Sync, appends under the always policy, recovery, backfill, and the tail
// read the forwarder catches up through. The fsync figures are this
// sandbox's virtual disk's, not a device's.
func leafWAL(e *env) error {
	dir := e.dir("wal-none")
	wal, err := results.OpenWAL(results.WALConfig{Dir: dir, Policy: results.SyncNone})
	if err != nil {
		return err
	}
	n := 0
	e.m["results.wal_append_ns"] = perOp(len(e.terms)/chunk, func(base int) {
		for i := 0; i < chunk; i++ {
			n++
			wal.CommitStream(uint64(n), uint64(n), nil, e.terms[base+i])
		}
	})
	st := wal.Stats()
	e.m["results.wal_bytes_per_rec"] = float64(st.Bytes) / float64(st.Records)
	start := time.Now()
	if err := wal.Sync(); err != nil {
		return err
	}
	e.m["results.wal_sync_ms"] = float64(time.Since(start)) / 1e6

	tail := 0
	start = time.Now()
	if err := wal.ReadRecordFrames(0, func(uint64, []byte) error { tail++; return nil }); err != nil {
		return err
	}
	e.m["results.wal_tail_ns_per_rec"] = float64(time.Since(start)) / float64(tail)
	if err := wal.Close(); err != nil {
		return err
	}
	if tail != n {
		return fmt.Errorf("WAL tail read %d of %d records", tail, n)
	}

	var store *results.Store
	start = time.Now()
	allocs := allocsPerOp(n, func() { store, _, err = results.OpenStoreFromWAL(dir) })
	if err != nil {
		return err
	}
	e.m["results.wal_recover_ns_per_rec"] = float64(time.Since(start)) / float64(n)
	e.m["results.wal_recover_allocs_per_rec"] = allocs
	if store.Len() != n {
		return fmt.Errorf("WAL recovery rebuilt %d of %d records", store.Len(), n)
	}
	agg := serve.NewAggregator()
	start = time.Now()
	agg.Backfill(store)
	e.m["results.backfill_ns_per_rec"] = float64(time.Since(start)) / float64(n)

	always, err := results.OpenWAL(results.WALConfig{Dir: e.dir("wal-always"), Policy: results.SyncAlways})
	if err != nil {
		return err
	}
	e.m["results.wal_append_always_us"] = perOp(2, func(base int) {
		for i := 0; i < chunk; i++ {
			always.CommitStream(uint64(base+i+1), uint64(base+i+1), nil, e.terms[base+i])
		}
	}) / 1e3
	return always.Close()
}

// leafExport times the two export encodings of a full store.
func leafExport(e *env) error {
	store := results.NewStore()
	if _, err := store.AddBatch(e.terms); err != nil {
		return err
	}
	for name, write := range map[string]func(io.Writer) error{
		"results.export_wire_ns_per_rec":  store.WriteWire,
		"results.export_jsonl_ns_per_rec": store.WriteJSONL,
	} {
		start := time.Now()
		if err := write(io.Discard); err != nil {
			return err
		}
		e.m[name] = float64(time.Since(start)) / float64(len(e.terms))
	}
	return nil
}

// leafForwarder times the forwarder against an upstream that acknowledges at
// once: the commit-path enqueue, a live JSON flush, and a binary catch-up
// from the WAL tail.
func leafForwarder(e *env) error {
	quiet := func(string, ...any) {}
	newEdge := func(dir string, binary bool, preload int) (*results.Store, *results.WAL, *federation.Forwarder, error) {
		wal, err := results.OpenWAL(results.WALConfig{Dir: e.dir(dir), Policy: results.SyncNone})
		if err != nil {
			return nil, nil, nil, err
		}
		store := results.NewStore()
		store.AddObserver(wal)
		if _, err := store.AddBatch(e.terms[:preload]); err != nil {
			return nil, nil, nil, err
		}
		fwd, err := federation.NewForwarder(federation.ForwarderConfig{
			Client: apiclient.NewWithConfig("http://stub", apiclient.Config{
				HTTPClient: &http.Client{Transport: cannedBatch}, BinaryEncoding: binary,
			}),
			WAL: wal, Logf: quiet,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		store.AddObserver(fwd)
		return store, wal, fwd, nil
	}

	store, wal, fwd, err := newEdge("fwd-json", false, 0)
	if err != nil {
		return err
	}
	if err := fwd.Flush(e.ctx); err != nil { // leave start-up catch-up mode
		return err
	}
	e.m["federation.flush_ns_per_rec"] = perOp(32, func(base int) {
		if _, aerr := store.AddBatch(e.terms[base : base+chunk]); aerr != nil {
			err = aerr
		}
		if ferr := fwd.Flush(e.ctx); ferr != nil {
			err = ferr
		}
	})
	// Enqueue alone: the forwarder's share of a commit, called as the store
	// calls it.
	n := uint64(32 * chunk)
	e.m["federation.enqueue_ns"] = perOp(32, func(base int) {
		for i := 0; i < chunk; i++ {
			n++
			fwd.CommitStream(n, n, nil, e.terms[32*chunk+base+i])
		}
	})
	fwd.Stop()
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Binary catch-up: the records are in the WAL before the forwarder
	// exists, so its first pass ships them as the frames the log holds.
	const preload = 64 * chunk
	_, wal, fwd, err = newEdge("fwd-bin", true, preload)
	if err != nil {
		return err
	}
	start := time.Now()
	err = fwd.Flush(e.ctx)
	e.m["federation.flush_bin_ns_per_rec"] = float64(time.Since(start)) / preload
	if got := fwd.Stats().AckedCursor; err == nil && got != preload {
		err = fmt.Errorf("binary catch-up acknowledged %d of %d records", got, preload)
	}
	fwd.Stop()
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// leafInference times the incremental detector with every pattern dirty and
// with none, at the ledger's store size. (Verdicts are compared with the
// ground truth in the socket run, which reports inference.wrong_verdicts.)
func leafInference(e *env) error {
	agg := serve.NewAggregator()
	for i := range e.terms {
		agg.Commit(nil, e.terms[i])
	}
	det := inference.New(inference.Config{})
	det.DetectIncremental(agg)
	dirty := make([]float64, 16)
	for r := range dirty {
		for p := 0; p < gen.Patterns; p++ {
			m := e.uniform[r*gen.Patterns+p]
			agg.Commit(nil, m)
		}
		start := time.Now()
		det.DetectIncremental(agg)
		dirty[r] = float64(time.Since(start)) / 1e3
	}
	e.m["inference.detect_incremental_us"] = stat.Median(dirty)
	idle := make([]float64, 16)
	for r := range idle {
		start := time.Now()
		det.DetectIncremental(agg)
		idle[r] = float64(time.Since(start)) / 1e3
	}
	e.m["inference.detect_idle_us"] = stat.Median(idle)
	return nil
}
