package load

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/geo"

	"encore/bench/internal/gen"
	"encore/bench/internal/serve"
	"encore/bench/internal/stat"
)

// Options are the arguments of one run.
type Options struct {
	// Seed generates every input.
	Seed uint64
	// Seconds is how long the run measures for.
	Seconds float64
	// Workers is the number of load-generating goroutines; zero means one
	// per CPU.
	Workers int
	// Serve builds the command that runs the serve role.
	Serve ServeCommand
	// TmpDir is where the run's WAL directories are made and removed; empty
	// means the system's temporary directory.
	TmpDir string
	// Setups is how many times set-up is performed and timed; zero means 9.
	Setups int
	// ProbeLag samples the upstream's count every 5 ms to measure forwarding
	// lag. It adds load, so only the per-layer run turns it on.
	ProbeLag bool
}

// Result is what one run measured and checked.
type Result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// Attempted and Failed count records for the closed loops and requests
	// for the open loop.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Failures lists every correctness check that did not hold.
	Failures []string `json:"failures,omitempty"`
	// EndToEnd holds the gated metrics, Layer the per-layer counts that can
	// only be read from a socket run, Samples how many samples stand behind
	// a metric.
	EndToEnd map[string]float64 `json:"end_to_end"`
	Layer    map[string]float64 `json:"layer"`
	Samples  map[string]int     `json:"samples"`
	// TailPercentile is the percentile client.op_p99_ms was read at: 99 unless
	// the run was too short to have ten samples beyond it.
	TailPercentile float64 `json:"tail_percentile"`
	// Sizes records how much work the run did.
	Sizes map[string]int64 `json:"sizes"`
	// SutGOMAXPROCS is the serve child's GOMAXPROCS.
	SutGOMAXPROCS int `json:"sut_gomaxprocs"`
}

// Correct reports whether every operation succeeded and every check held.
func (r *Result) Correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

func (r *Result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// run is the state of one workload run.
type run struct {
	spec  Spec
	opt   Options
	res   *Result
	tmp   string
	trips atomic.Int64
	child *Child
	// mark is when the current phase began; phase charges the time since to
	// a named entry of Sizes, so a run shows where its wall time went.
	mark time.Time
	// ready is the child's counters once set up; the live-heap figure grows
	// from there.
	ready serve.Stats
}

// phase closes the current phase under name and opens the next.
func (r *run) phase(name string) {
	now := time.Now()
	r.res.Sizes[name+"_ms"] += now.Sub(r.mark).Milliseconds()
	r.mark = now
}

// timeout is the hard limit of one run: three times its measured length plus
// a fixed allowance for set-up, recovery and verification. A run that
// reaches it is killed and fails instead of hanging.
func timeout(seconds float64) time.Duration {
	return time.Duration(3*seconds*float64(time.Second)) + 90*time.Second
}

// Run executes one workload: set-up (several times, timed), warm-up, the
// timed phases, and every correctness check. The child is stopped and its
// files are removed however the run ends.
func Run(ctx context.Context, spec Spec, opt Options) (res *Result, err error) {
	if opt.Workers <= 0 {
		opt.Workers = runtime.NumCPU()
	}
	if opt.Setups <= 0 {
		opt.Setups = 9
	}
	if opt.TmpDir == "" {
		opt.TmpDir = os.TempDir()
	}
	ctx, cancel := context.WithTimeout(ctx, timeout(opt.Seconds))
	defer cancel()

	tmp, err := os.MkdirTemp(opt.TmpDir, "encore-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	r := &run{spec: spec, opt: opt, tmp: tmp, mark: time.Now(), res: &Result{
		Workload: spec.Name, Seed: opt.Seed, Seconds: opt.Seconds,
		EndToEnd: map[string]float64{}, Layer: map[string]float64{},
		Samples: map[string]int{}, Sizes: map[string]int64{}, TailPercentile: 99,
	}}
	defer func() {
		if r.child != nil {
			r.child.Kill()
		}
		if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			err = fmt.Errorf("workload %s exceeded its hard timeout of %v: %w", spec.Name, timeout(opt.Seconds), err)
		}
	}()

	if spec.Open {
		err = r.runOpen(ctx)
	} else {
		err = r.runClosed(ctx)
	}
	if err != nil {
		if r.child != nil {
			err = fmt.Errorf("%w\nserve stderr: %s", err, r.child.Stderr())
		}
		return nil, err
	}
	sort.Strings(r.res.Failures)
	return r.res, nil
}

// walDir names the i-th WAL directory of the run, or nothing for a workload
// without a WAL.
func (r *run) walDir(i int) string {
	if !r.spec.WAL {
		return ""
	}
	return filepath.Join(r.tmp, fmt.Sprintf("wal-%d", i))
}

// setUp brings the topology up Setups times and keeps the last: spawn serve,
// wait for its port report (stack built, listeners bound), register the
// warm-up manifest, and see every listener answer its health check. setup_s
// is the median of the repeats.
func (r *run) setUp(ctx context.Context, manifest []byte) error {
	var took []float64
	for i := 0; i < r.opt.Setups; i++ {
		cfg := r.spec.Topology
		cfg.WALDir = r.walDir(i)
		start := time.Now()
		child, err := StartChild(ctx, r.opt.Serve, cfg)
		if err != nil {
			return err
		}
		r.child = child
		if len(manifest) > 0 {
			if err := child.Register(ctx, manifest); err != nil {
				return err
			}
		}
		for _, base := range []string{child.Ports.Edge, child.Ports.Coordinator, child.Ports.Upstream} {
			if base == "" {
				continue
			}
			if _, err := apiclient.New(base).Health(ctx); err != nil {
				return fmt.Errorf("load: health check of %s: %w", base, err)
			}
		}
		took = append(took, time.Since(start).Seconds())
		if i < r.opt.Setups-1 {
			if err := child.Stop(); err != nil {
				return err
			}
			r.child = nil
		}
	}
	r.res.EndToEnd["setup_s"] = stat.Median(took)
	r.res.Samples["setup_s"] = len(took)
	r.res.SutGOMAXPROCS = r.child.Ports.GOMAXPROCS
	var err error
	r.ready, err = r.child.Stats(ctx, true)
	return err
}

// sliceSeconds is the target length of one timed stretch of a sliced closed
// loop. Between stretches the clock is stopped while the next stretch's
// measurements are generated and registered.
const sliceSeconds = 0.75

// callersPerCPU sizes the closed loops. One caller per core leaves the cores
// a fifth idle between a reply and the next request, and throughput then
// follows wake-up luck (measured: +-15 % between consecutive seconds); eight
// per core keep both processes runnable all the time, so the figure is set
// by CPU cost.
const callersPerCPU = 8

// visitorsPerCPU sizes the open loop: each visitor is a sequence of browsers
// on one connection pair. A visit lasts a millisecond or a few and a visitor
// takes its visits one after another, so with 64 visitors at 12.5 visits a
// second each, one visit in a hundred finds its visitor still busy with the
// one before (with 16, one in twenty did, and gen.lag_p99_ms read half as
// much again).
const visitorsPerCPU = 32

// maxLagMillis is the open loop's validity condition: the 99th percentile of
// how late visits started may not pass it, or the run fails. The plan was
// 1 ms. On the reference box no generator can keep that: while the workload
// runs, a thread of another process sleeping in nanosleep(2) wakes 1.5 to
// 2 ms late at its own 99th percentile (the kernel lets the running task
// finish its slice), and the timekeeper and the visitor it wakes are such
// threads. Measured over 55 runs of a fast and a slow hour of the box:
// median 0.15 ms, 90th percentile 0.3 ms, 99th 1.7 to 4.8 ms, and 5.2 to
// 5.6 ms in three consecutive runs of a slow phase. A limit must not fail
// valid runs, so it is twice the worst of those, the 99th-percentile visit
// (10 ms); a generator that does not keep its schedule reads far beyond it
// (38 and 56 ms with a busy loop on each core beside it).
const maxLagMillis = 10.0

// runClosed drives the closed-loop workloads.
func (r *run) runClosed(ctx context.Context) error {
	spec, res := r.spec, r.res
	blocks := &pool{stream: gen.NewStream(r.opt.Seed, spec.BlockSize)}
	callers := make([]*caller, r.opt.Workers*callersPerCPU)
	for w := range callers {
		callers[w] = newCaller(spec, blocks)
	}
	if err := r.setUp(ctx, blocks.provision(spec.WarmBlocks, -1, nil)); err != nil {
		return err
	}
	r.phase("setup")
	child := r.child
	for _, c := range callers {
		c.connect(child.Ports.Edge, &r.trips)
	}

	// Warm-up: connections, lazily built routers, first page faults. It is
	// bounded by the blocks set-up registered, not by time.
	warm, err := runSlice(ctx, child, callers, time.Hour, false)
	if err != nil {
		return err
	}
	r.phase("warmup")

	before, err := child.Stats(ctx, false)
	if err != nil {
		return err
	}
	// total is the timed window, loaded the part of it in which the callers
	// had work to offer: all of it, except for the drain workload's wait.
	var total, loaded slice
	if spec.PushBlocks > 0 {
		total, loaded, err = r.runDrain(ctx, callers, blocks)
	} else {
		total, err = r.runSliced(ctx, callers, blocks, warm)
		loaded = total
	}
	if err != nil {
		return err
	}
	after, err := child.Stats(ctx, false)
	if err != nil {
		return err
	}
	r.latencies(total.latMillis)
	res.Sizes["timed_records"] = total.records
	r.account(total, loaded, before, after)

	var ids, calls int64
	parts := make([]map[cell]*tally, len(callers))
	for w, c := range callers {
		res.Attempted += c.attempted
		res.Failed += c.failed
		ids += c.ids
		calls += c.calls
		parts[w] = c.sent
		if c.firstErr != nil {
			res.failf("caller %d: %v", w, c.firstErr)
		}
	}
	res.Sizes["ids"] = ids
	res.Sizes["records"] = res.Attempted
	r.retries(calls)
	return r.verify(ctx, int(ids), mergeTallies(parts...), gen.NewTruth(r.opt.Seed, geo.NewRegistry(1)))
}

// runDrain is the drain workload's timed phase, in rounds: push PushBlocks
// blocks into the edge as fast as it accepts them, send the terminals still
// owed, and wait for the forwarder; the clock of a round runs from its first
// submission until the upstream holds everything. A round is sized in blocks,
// not in seconds, because its clock stops on an event and not on a timer;
// rounds are run until Seconds of them have been timed, so the run is as long
// on a slow box as on a fast one. Between rounds the clock is stopped while
// the next round's measurements are generated and registered. total sums the
// rounds, pushed only the part of each in which the callers had work to offer.
func (r *run) runDrain(ctx context.Context, callers []*caller, blocks *pool) (total, pushed slice, err error) {
	res, child := r.res, r.child
	var rates, cpus []float64
	var peak uint64
	// Another round starts while the rounds so far and half a round of their
	// mean length fall short of Seconds, so the timed total ends nearest to it.
	for n := 0; n == 0 || total.wall.Seconds()*(1+0.5/float64(n)) < r.opt.Seconds; n++ {
		if err := register(ctx, child, blocks, r.spec.PushBlocks, -1); err != nil {
			return slice{}, slice{}, err
		}
		r.phase("register")
		u0, s0, err := child.CPU()
		if err != nil {
			return slice{}, slice{}, err
		}
		g0 := selfCPU()
		start := time.Now()
		push, err := runSlice(ctx, child, callers, 0, true)
		if err != nil {
			return slice{}, slice{}, err
		}
		end, backlog, err := child.WaitDrained(ctx, 5*time.Millisecond)
		if err != nil {
			return slice{}, slice{}, err
		}
		u1, s1, err := child.CPU()
		if err != nil {
			return slice{}, slice{}, err
		}
		r.phase("timed")
		round := slice{records: push.records, wall: end.Sub(start), sutCPU: u1 + s1 - u0 - s0, sutSys: s1 - s0, genCPU: selfCPU() - g0}
		total.add(round)
		total.latMillis = append(total.latMillis, push.latMillis...)
		pushed.add(push)
		peak = max(peak, backlog)
		rates = append(rates, float64(round.records)/round.wall.Seconds())
		cpus = append(cpus, float64(round.sutCPU)/1e3/float64(round.records))
		if n == 0 {
			// The live heap is read at a fixed store size, the first round's:
			// every run reaches it, and nothing is in flight after a drain.
			if err := r.readLiveHeap(ctx, blocks.made*r.spec.BlockSize); err != nil {
				return slice{}, slice{}, err
			}
			r.phase("checkpoint")
		}
	}
	res.Layer["federation.backlog_peak"] = float64(peak)
	// Read like the sliced workloads' rates: a stall of the sandbox costs a
	// round, not the run.
	res.EndToEnd["records_per_s"] = stat.MidMean(rates)
	res.EndToEnd["cpu_us_per_record"] = stat.MidMean(cpus)
	res.Samples["records_per_s"], res.Samples["cpu_us_per_record"] = len(rates), len(cpus)
	res.Sizes["push_ms"] = pushed.wall.Milliseconds()
	res.Sizes["rounds"] = int64(len(rates))
	return total, pushed, nil
}

// runSliced is the timed phase of the other closed loops: Seconds of load in
// stretches of sliceSeconds, the clock stopped between stretches while the
// next one's measurements are generated and registered. It ends with an
// untimed tail that uses every registered measurement and sends the
// terminals still owed, so the store ends with every ID terminal.
func (r *run) runSliced(ctx context.Context, callers []*caller, blocks *pool, warm slice) (slice, error) {
	res, child, spec := r.res, r.child, r.spec
	n := int(r.opt.Seconds/sliceSeconds + 0.5)
	if n < 1 {
		n = 1
	}
	dur := time.Duration(r.opt.Seconds / float64(n) * float64(time.Second))
	// checkpoint is the block count at which the live heap is read: a fixed
	// store size, because Go maps grow by doubling and the bytes a store
	// holds per ID depend on where between two doublings it stands.
	checkpoint := int(r.opt.Seconds * spec.CheckpointBlocksPerSecond)
	last := warm
	var timed []slice
	for i := 0; i < n; i++ {
		// Enough blocks for a stretch at the rate last seen (half of all
		// POSTs start a block), with headroom so a faster stretch does not
		// run dry.
		want := int(float64(last.records)/float64(spec.BlockSize)/2*float64(dur)/float64(last.wall)*1.3) + 2
		stopAt := checkpoint
		if res.Samples["live_bytes_per_id"] > 0 {
			stopAt = -1
		}
		if err := register(ctx, child, blocks, want, stopAt); err != nil {
			return slice{}, err
		}
		r.phase("register")
		sl, err := runSlice(ctx, child, callers, dur, false)
		if err != nil {
			return slice{}, err
		}
		r.phase("timed")
		if sl.records > 0 {
			timed, last = append(timed, sl), sl
		}
		if blocks.made == checkpoint && sl.dry && res.Samples["live_bytes_per_id"] == 0 {
			if err := r.readLiveHeap(ctx, checkpoint*spec.BlockSize); err != nil {
				return slice{}, err
			}
			r.phase("checkpoint")
		}
	}
	if len(timed) == 0 {
		return slice{}, errors.New("load: no timed stretch submitted anything")
	}
	var total slice
	var rates, cpus []float64
	for _, sl := range timed {
		total.add(sl)
		total.latMillis = append(total.latMillis, sl.latMillis...)
		rates = append(rates, float64(sl.records)/sl.wall.Seconds())
		cpus = append(cpus, float64(sl.sutCPU)/1e3/float64(sl.records))
	}
	// Rates are read off the stretches by their interquartile mean: a stall of
	// the sandbox (a neighbour's burst slows memory-bound code by a tenth or
	// more for seconds at a time) then costs a stretch, not the run.
	res.EndToEnd["records_per_s"] = stat.MidMean(rates)
	res.EndToEnd["cpu_us_per_record"] = stat.MidMean(cpus)
	res.Samples["records_per_s"], res.Samples["cpu_us_per_record"] = len(rates), len(cpus)
	if _, err := runSlice(ctx, child, callers, 0, true); err != nil {
		return slice{}, err
	}
	r.phase("tail")
	return total, nil
}

// latencies sets the latency figures from the timed operations' latencies in
// milliseconds, given in the order the operations ended (closed loops) or
// were due (open loop). Each figure is the median over consecutive slices of
// that slice's percentile, so one slow second moves one slice's reading. A
// slice is just long enough to have ten samples beyond the percentile read
// from it and a few more: 250 operations up to the 95th, 1000 for the 99th.
// All are per-layer metrics and none is gated: on this sandbox the median
// follows how long the host takes to wake an idle virtual CPU and the tail is
// the disk's and the neighbours' (a WAL shard is locked while it fsyncs), and
// their run-to-run spread passes any bound the driver allows.
func (r *run) latencies(lat []float64) {
	res := r.res
	res.Layer["client.op_p50_ms"], _ = stat.SliceTail(lat, 50, 250, 64)
	res.Layer["client.op_p90_ms"], _ = stat.SliceTail(lat, 90, 250, 64)
	res.Layer["client.op_p95_ms"], _ = stat.SliceTail(lat, 95, 250, 64)
	res.Layer["client.op_p99_ms"], res.TailPercentile = stat.SliceTail(lat, 99, 1000, 16)
	res.Samples["client.op_p50_ms"] = len(lat)
}

// readLiveHeap sets live_bytes_per_id: the growth of the child's live heap
// (read after a forced collection) since it was ready to serve, per
// measurement ID it now holds.
func (r *run) readLiveHeap(ctx context.Context, ids int) error {
	st, err := r.child.Stats(ctx, true)
	if err != nil {
		return err
	}
	r.res.EndToEnd["live_bytes_per_id"] = (float64(st.Mem.HeapAlloc) - float64(r.ready.Mem.HeapAlloc)) / float64(ids)
	r.res.Samples["live_bytes_per_id"] = ids
	return nil
}

// cpuOverWindow sets cpu_us_per_record for a workload timed as one window.
func (r *run) cpuOverWindow(total slice) {
	r.res.EndToEnd["cpu_us_per_record"] = float64(total.sutCPU) / 1e3 / float64(total.records)
	r.res.Samples["cpu_us_per_record"] = 1
}

// account derives the per-layer counts of the child and of the generator
// from the two edges of the timed window, and holds a closed loop to its
// validity condition: while the callers had work to offer (loaded), generator
// and child together kept the cores at least Spec.MinCoresBusy busy, so a fall
// in records_per_s can be read as cost and not as a generator that idled.
func (r *run) account(total, loaded slice, before, after serve.Stats) {
	res, recs := r.res, float64(total.records)
	cores := float64(runtime.NumCPU())
	res.Layer["gen.cpu_share"] = total.genCPU.Seconds() / (cores * total.wall.Seconds())
	busy := (loaded.genCPU + loaded.sutCPU).Seconds() / (cores * loaded.wall.Seconds())
	res.Layer["gen.cores_busy_share"] = busy
	if busy < r.spec.MinCoresBusy {
		res.failf("generator and child kept the cores %.0f%% busy, below the %.0f%% this workload's figures are valid from",
			100*busy, 100*r.spec.MinCoresBusy)
	}
	if total.sutCPU > 0 {
		res.Layer["sut.sys_cpu_share"] = float64(total.sutSys) / float64(total.sutCPU)
	}
	res.Layer["sut.allocs_per_rec"] = float64(after.Mem.Mallocs-before.Mem.Mallocs) / recs
	res.Layer["sut.alloc_bytes_per_rec"] = float64(after.Mem.TotalAlloc-before.Mem.TotalAlloc) / recs
	res.Layer["sut.gc_pause_ms"] = float64(after.Mem.PauseTotalNs-before.Mem.PauseTotalNs) / 1e6
	if spent := after.Mem.CPUSeconds - before.Mem.CPUSeconds; spent > 0 {
		res.Layer["sut.gc_cpu_share"] = (after.Mem.GCCPUSeconds - before.Mem.GCCPUSeconds) / spent
	}
	res.Layer["sut.heap_peak_mb"] = float64(after.Mem.HeapSys) / 1e6
	if after.WAL != nil {
		res.Layer["results.wal_fsyncs"] = float64(after.WAL.Fsyncs - before.WAL.Fsyncs)
	}
}

// retries sets client.retries: round trips beyond the calls the generator
// made are retries the SDK made on its own, after a refusal or a lost
// connection. A valid run has none.
func (r *run) retries(calls int64) {
	n := r.trips.Load() - calls
	r.res.Layer["client.retries"] = float64(n)
	if n != 0 {
		r.res.failf("the SDK retried %d requests", n)
	}
}

// runOpen drives the open-loop page-view workload.
func (r *run) runOpen(ctx context.Context) error {
	spec, res := r.spec, r.res
	if err := r.setUp(ctx, nil); err != nil {
		return err
	}
	r.phase("setup")
	child := r.child

	warmFor := time.Duration(0.05 * r.opt.Seconds * float64(time.Second))
	if warmFor < 500*time.Millisecond {
		warmFor = 500 * time.Millisecond
	}
	horizon := warmFor + time.Duration(r.opt.Seconds*float64(time.Second))
	workers := r.opt.Workers * visitorsPerCPU
	perWorker := spec.VisitsPerSecond / float64(workers)
	// A fifth more visits than the expected count, so the Poisson schedule
	// reaches the horizon; those due past it are not run.
	generate := int(perWorker*horizon.Seconds()*1.2) + 64

	visitors := make([]*visitor, workers)
	dues := make([][]time.Duration, workers)
	for w := range visitors {
		v := newVisitor(r.opt.Seed, w, perWorker, generate, child.Ports.Coordinator, child.Ports.Edge, &r.trips)
		visitors[w] = v
		for _, pv := range v.visits {
			if time.Duration(pv.Due) >= horizon {
				break
			}
			dues[w] = append(dues[w], time.Duration(pv.Due))
		}
	}

	start := time.Now()
	var acks *ackLog
	var samples []countSample
	probeCtx, stopProbe := context.WithCancel(ctx)
	defer stopProbe()
	var probe sync.WaitGroup
	if r.opt.ProbeLag {
		acks = newAckLog(start, int(spec.VisitsPerSecond*horizon.Seconds()*6))
		for _, v := range visitors {
			v.acks = acks
		}
		probe.Add(1)
		go func() {
			defer probe.Done()
			samples = pollUpstream(probeCtx, apiclient.New(child.Ports.Upstream), start, 5*time.Millisecond)
		}()
	}

	timings := make([][]timing, len(visitors))
	tokens := release(ctx, start, dues)
	var wg sync.WaitGroup
	for w, v := range visitors {
		wg.Add(1)
		go func(w int, v *visitor) {
			defer wg.Done()
			timings[w] = pace(released{start, tokens[w]}, dues[w], func(i int) { v.visit(ctx, i) })
		}(w, v)
	}
	// The timed window opens when the warm-up visits are past.
	select {
	case <-time.After(warmFor - time.Since(start)):
	case <-ctx.Done():
	}
	before, err := child.Stats(ctx, false)
	if err != nil {
		return err
	}
	u0, s0, err := child.CPU()
	if err != nil {
		return err
	}
	g0 := selfCPU()
	opened := time.Since(start)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	closed := time.Since(start)
	u1, s1, err := child.CPU()
	if err != nil {
		return err
	}
	total := slice{wall: closed - opened, sutCPU: u1 + s1 - u0 - s0, sutSys: s1 - s0, genCPU: selfCPU() - g0}
	after, err := child.Stats(ctx, false)
	if err != nil {
		return err
	}
	r.phase("timed")

	// Forwarding continues after the last visit; verification waits for it.
	_, peak, err := child.WaitDrained(ctx, 5*time.Millisecond)
	if err != nil {
		return err
	}
	res.Layer["federation.backlog_peak"] = float64(peak)
	stopProbe()
	probe.Wait()

	// Timed visits, in the order they were due across both workers.
	type timedVisit struct {
		timing
		records int32
	}
	var tv []timedVisit
	var ids, calls int64
	parts := make([]map[cell]*tally, len(visitors))
	for w, v := range visitors {
		for i, t := range timings[w] {
			if t.due >= warmFor {
				tv = append(tv, timedVisit{t, v.records[i]})
			}
		}
		res.Attempted += v.attempted
		res.Failed += v.failed
		ids += v.tasks
		calls += v.calls
		parts[w] = v.sent
		if v.firstErr != nil {
			res.failf("visitor %d: %v", w, v.firstErr)
		}
	}
	sort.Slice(tv, func(i, j int) bool { return tv[i].due < tv[j].due })
	lat := make([]float64, len(tv))
	lag := make([]float64, len(tv))
	for i, t := range tv {
		lat[i] = float64(t.latency()) / 1e6
		lag[i] = float64(t.lag()) / 1e6
		total.records += int64(t.records)
	}
	if total.records == 0 {
		return errors.New("load: no visit was due inside the timed window; run longer")
	}
	res.EndToEnd["records_per_s"] = float64(total.records) / total.wall.Seconds()
	res.Samples["records_per_s"] = 1
	r.latencies(lat)
	// Read like the latencies: one stall of the sandbox moves one slice. The
	// per-layer run is not held to the limit: it polls the upstream 200 times
	// a second beside the visitors, is a third as long (three slices, so one
	// stall across a boundary moves the median), and gates none of its times.
	late, _ := stat.SliceTail(lag, 99, 1000, 16)
	res.Layer["gen.lag_p99_ms"] = late
	if late > maxLagMillis && !r.opt.ProbeLag {
		res.failf("visits started %.2f ms late at the 99th percentile, over the %v ms within which the schedule counts as kept", late, maxLagMillis)
	}
	r.retries(calls)
	res.Sizes["visits"] = int64(len(tv))
	res.Sizes["timed_records"] = total.records
	res.Sizes["ids"] = ids
	res.Sizes["records"] = res.Attempted
	r.cpuOverWindow(total)
	r.account(total, total, before, after)
	if acks != nil {
		if lags := upstreamLags(acks, samples); len(lags) > 0 {
			res.Layer["federation.upstream_lag_p50_ms"] = stat.Percentile(lags, 50)
		}
	}
	return r.verify(ctx, int(ids), mergeTallies(parts...), visitors[0].truth)
}

// verify runs the export and recovery phases and every correctness check.
func (r *run) verify(ctx context.Context, ids int, sent map[cell]tally, truth *gen.Truth) error {
	res, child := r.res, r.child
	final := child.Ports.Edge
	if child.Ports.Upstream != "" {
		final = child.Ports.Upstream
	}

	if res.Samples["live_bytes_per_id"] == 0 && ids > 0 {
		// No fixed-size checkpoint was reached (or the workload has none):
		// read the live heap at the size the run ended with.
		if err := r.readLiveHeap(ctx, ids); err != nil {
			return err
		}
	}
	end, err := child.Stats(ctx, false)
	if err != nil {
		return err
	}
	if peak, err := child.PeakRSS(); err == nil {
		res.Layer["sut.rss_peak_mb"] = float64(peak) / 1e6
	}
	if end.EdgeLen != ids {
		res.failf("edge store holds %d measurements, %d IDs were submitted", end.EdgeLen, ids)
	}

	fin, first, err := exportDigest(ctx, final)
	if err != nil {
		return fmt.Errorf("load: reading the final tier's export: %w", err)
	}
	if fin.count != ids {
		res.failf("final tier exports %d measurements, %d IDs were submitted", fin.count, ids)
	} else if rate, passes, err := timeExport(ctx, final, ids, first); err != nil {
		res.failf("timed export: %v", err)
	} else {
		res.Layer["sut.export_records_per_s"] = rate
		res.Sizes["export_passes"] = int64(passes)
	}
	if fin.pending != 0 {
		res.failf("final tier holds %d measurements not in a terminal state", fin.pending)
	}

	if fw := end.Forwarder; fw != nil {
		edge, _, err := exportDigest(ctx, child.Ports.Edge)
		if err != nil {
			return fmt.Errorf("load: reading the edge's export: %w", err)
		}
		if edge.count != fin.count || edge.unsorted != fin.unsorted {
			res.failf("edge and upstream exports differ as sets (%d vs %d records)", edge.count, fin.count)
		}
		if fw.Dropped != 0 || fw.DeadLetters != 0 || fw.Rejected != 0 {
			res.failf("forwarder dropped %d, dead-lettered %d, had %d rejected", fw.Dropped, fw.DeadLetters, fw.Rejected)
		}
		res.Layer["federation.batches"] = float64(fw.Batches)
		res.Layer["federation.spilled"] = float64(fw.Spilled)
		res.Layer["federation.dropped"] = float64(fw.Dropped)
		res.Layer["federation.dead_letters"] = float64(fw.DeadLetters)
	}

	verdicts, err := child.Verdicts(ctx)
	if err != nil {
		return err
	}
	failures, wrong := checkVerdicts(verdicts, sent, truth)
	res.Failures = append(res.Failures, failures...)
	res.Layer["inference.wrong_verdicts"] = float64(wrong)
	res.Layer["results.agg_groups"] = float64(len(verdicts))

	r.phase("verify")
	if r.spec.Recover {
		if err := r.recover(ctx, ids, fin); err != nil {
			return err
		}
		r.phase("recover")
	}
	err = r.child.Stop()
	r.child = nil
	return err
}

// recover is the restart phase: stop the child in order, respawn it on the
// same WAL directory, time until its health check reports the full count
// (replay plus aggregator backfill), and require the recovered export to be
// bit-identical to the one before the stop.
func (r *run) recover(ctx context.Context, ids int, before digest) error {
	cfg := r.spec.Topology
	cfg.WALDir = r.walDir(r.opt.Setups - 1)
	if err := r.child.Stop(); err != nil {
		return err
	}
	r.child = nil
	start := time.Now()
	child, err := StartChild(ctx, r.opt.Serve, cfg)
	if err != nil {
		return err
	}
	r.child = child
	edge := apiclient.New(child.Ports.Edge)
	for {
		h, err := edge.Health(ctx)
		if err != nil {
			return fmt.Errorf("load: health check after restart: %w", err)
		}
		if h.Measurements >= ids {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("load: recovered store reached %d of %d measurements: %w", h.Measurements, ids, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	r.res.Layer["sut.recovery_s"] = time.Since(start).Seconds()
	after, _, err := exportDigest(ctx, child.Ports.Edge)
	if err != nil {
		return fmt.Errorf("load: reading the recovered export: %w", err)
	}
	if after.count != before.count || after.ordered != before.ordered {
		r.res.failf("recovered export differs from the export before SIGTERM (%d vs %d records, hash %x vs %x)",
			after.count, before.count, after.ordered, before.ordered)
	}
	return nil
}
