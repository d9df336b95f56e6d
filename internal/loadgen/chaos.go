package loadgen

// The chaos runner: deterministic full-stack fault campaigns over the four
// injection surfaces internal/faultinject exposes — the filesystem the WAL
// writes through, the http.RoundTripper the SDK and federation forwarder
// dial through, schedule-driven adversarial censor/netsim grids, and the
// replicated coordinator control plane (partitions, crash/restart, gossip
// storms; see chaos_coord.go). The registry is one ordered table. Most rows
// are data for a shared runner (stickyDisk, httpFaults); every data-path
// scenario runs two arms from the same seed through runArms — a fault-free
// baseline and a faulted arm — then checks the standing invariants
// (DetectIncremental verdicts equal, nothing dropped with a WAL attached,
// recovered snapshots bit-identical, degraded health reported, forwarder
// cursor monotone, no goroutine leaks). A failing scenario's error always
// carries the runner seed, so any failure replays with RunChaos(thatSeed, ...).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"time"

	"encore/internal/api"
	apiclient "encore/internal/api/client"
	"encore/internal/api/federation"
	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/collectserver"
	"encore/internal/core"
	"encore/internal/faultinject"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/node"
	"encore/internal/results"
)

// Campaign shape shared by every scenario: small enough for CI, large
// enough that each pattern×region cell clears MinMeasurements and the
// mid-campaign schedule events land in populated segments.
const (
	chaosVisits     = 240
	chaosHTTPVisits = 144
	chaosSegments   = 4
)

var chaosStart = time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)

// chaosRegions fixes the client-region mix so both arms of a scenario drive
// byte-identical campaigns: filtering regions from the paper's study plus
// unfiltered controls.
var chaosRegions = []geo.CountryCode{"CN", "PK", "IR", "TR", "US", "DE"}

// ChaosScenario is one named fault campaign.
type ChaosScenario struct {
	// Name identifies the scenario in reports and replay instructions.
	Name string
	// Surface is the injection surface the scenario exercises: "disk",
	// "network", "censor", or "coord".
	Surface string

	run func(ctx *chaosCtx) error
}

// ChaosResult reports one scenario's outcome. Err is nil on success; a
// non-nil Err's message embeds the runner seed needed to replay it.
type ChaosResult struct {
	Name    string
	Surface string
	// Seed is the scenario's derived sub-seed (informational; replay uses
	// the runner seed embedded in Err).
	Seed uint64
	Err  error
}

type chaosCtx struct {
	seed uint64
	logf func(format string, args ...any)
}

// ChaosScenarios returns the full scenario registry in execution order.
// RunChaos draws each scenario's sub-seed in this order, so a new row goes
// at the end: reordering rows changes what every "replay with seed N" means.
func ChaosScenarios() []ChaosScenario {
	fsyncFail := (*faultinject.FaultFS).InjectFsyncFailures
	fsyncClear := (*faultinject.FaultFS).ClearFsyncFailures
	return []ChaosScenario{
		{Name: "disk-fsync-fail", Surface: "disk", run: stickyDisk{
			inject: fsyncFail, clear: fsyncClear, wantErr: faultinject.ErrInjectedFsync}.run},
		// The disk "fills" mid-campaign: 8 KiB of budget absorbs a few more
		// appends, then every write fails with ENOSPC.
		{Name: "disk-enospc", Surface: "disk", run: stickyDisk{
			inject:  func(fs *faultinject.FaultFS) { fs.SetWriteBudget(8 << 10) },
			clear:   func(fs *faultinject.FaultFS) { fs.SetWriteBudget(-1) },
			wantErr: faultinject.ErrInjectedNoSpace}.run},
		// A short write surfaces as a wrapped io.ErrShortWrite via bufio, so
		// any sticky error will do.
		{Name: "disk-short-write", Surface: "disk", run: stickyDisk{
			inject: func(fs *faultinject.FaultFS) { fs.InjectShortWrites(1) }}.run},
		{Name: "disk-crash-torn-tail", Surface: "disk", run: scenarioDiskCrashTornTail},
		{Name: "net-reset-storm", Surface: "network", run: httpFaults{
			net: faultinject.NetFaults{ResetProb: 0.35}}.run},
		// Two overload storms, one with a Retry-After flood: every response
		// until the counter drains is a synthesized 5xx, exactly what a
		// shedding upstream emits.
		{Name: "net-5xx-storm", Surface: "network", run: httpFaults{storms: []netStorm{
			{at: 0.25, count: 5, status: http.StatusServiceUnavailable, retryAfter: "0"},
			{at: 0.75, count: 5, status: http.StatusInternalServerError},
		}}.run},
		{Name: "net-latency-spikes", Surface: "network", run: scenarioNetLatencySpikes},
		{Name: "net-truncated-body", Surface: "network", run: scenarioNetTruncatedBody},
		{Name: "censor-throttle-ramp", Surface: "censor", run: stickyDisk{censor: throttleRampEvents,
			inject: fsyncFail, clear: fsyncClear, wantErr: faultinject.ErrInjectedFsync}.run},
		{Name: "censor-dns-flip", Surface: "censor", run: httpFaults{censor: dnsFlipEvents,
			net: faultinject.NetFaults{ResetProb: 0.3}}.run},
		// Clients churn through the campaign out of time order: later time
		// slices upload first, earlier slices arrive last as backdated v2
		// batches. The collector must keep its timeline straight either way.
		{Name: "churn-backdated", Surface: "censor", run: httpFaults{order: []int{2, 0, 3, 1}, storms: []netStorm{
			{at: 0.5, count: 4, status: http.StatusServiceUnavailable, retryAfter: "0"},
		}}.run},
		{Name: "coord-partition-heal", Surface: "coord", run: scenarioCoordPartitionHeal},
		{Name: "coord-crash-restart", Surface: "coord", run: scenarioCoordCrashRestart},
		{Name: "coord-gossip-storm", Surface: "coord", run: scenarioCoordGossipStorm},
	}
}

// RunChaos executes every scenario sequentially, deriving each scenario's
// sub-seed from the runner seed, and returns one result per scenario. The
// same seed always produces the same campaigns, faults, and verdicts, so a
// failure reported from CI replays locally with the seed its message
// carries. logf (optional) receives progress lines.
func RunChaos(seed uint64, logf func(format string, args ...any)) []ChaosResult {
	return runChaos(seed, ChaosScenarios(), logf)
}

func runChaos(seed uint64, scenarios []ChaosScenario, logf func(format string, args ...any)) []ChaosResult {
	rng := faultinject.NewRNG(seed)
	baseline := runtime.NumGoroutine()
	var out []ChaosResult
	for _, sc := range scenarios {
		out = append(out, runScenario(sc, rng.Uint64(), baseline, fmt.Sprintf("seed %d", seed), logf))
	}
	return out
}

// findChaosScenario looks one scenario up by name in the registry.
func findChaosScenario(name string) (ChaosScenario, bool) {
	for _, sc := range ChaosScenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return ChaosScenario{}, false
}

// RunChaosScenario executes a single named scenario with the given seed
// used directly as the scenario sub-seed (no derivation from a runner seed,
// so a seed printed by a failed run replays that run), including the
// goroutine-baseline check RunChaos applies between scenarios. An unknown
// name is reported as a failed result rather than a panic.
func RunChaosScenario(name string, seed uint64, logf func(format string, args ...any)) ChaosResult {
	sc, ok := findChaosScenario(name)
	if !ok {
		return ChaosResult{Name: name, Seed: seed, Err: fmt.Errorf("unknown chaos scenario %q", name)}
	}
	return runScenario(sc, seed, runtime.NumGoroutine(), fmt.Sprintf("-chaos-scenario %s -seed %d", name, seed), logf)
}

// runScenario runs one scenario at its sub-seed. The no-goroutine-leak
// invariant holds against baseline afterwards: every server, forwarder, WAL
// flusher, and transport the scenario started must be gone. A failure's
// error names the scenario and how to replay it.
func runScenario(sc ChaosScenario, seed uint64, baseline int, replay string, logf func(format string, args ...any)) ChaosResult {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("chaos: %-22s surface=%-7s seed=%d", sc.Name, sc.Surface, seed)
	err := sc.run(&chaosCtx{seed: seed, logf: logf})
	if err == nil {
		err = awaitGoroutineBaseline(baseline)
	}
	if err != nil {
		err = fmt.Errorf("chaos scenario %s failed (replay with %s): %w", sc.Name, replay, err)
	}
	return ChaosResult{Name: sc.Name, Surface: sc.Surface, Seed: seed, Err: err}
}

// awaitGoroutineBaseline waits for the goroutine count to settle back to
// the pre-scenario baseline (plus slack for runtime/netpoll churn).
func awaitGoroutineBaseline(baseline int) error {
	const slack = 6
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		if n <= baseline+slack {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("goroutine leak: %d goroutines alive, baseline %d (+%d slack)", n, baseline, slack)
}

// ---------------------------------------------------------------------------
// Arms and shared invariant checks.

// chaosArm is one side (baseline or faulted) of a scenario: a full stack,
// optionally persisting through a WAL on a FaultFS in a private directory.
type chaosArm struct {
	stack *clientsim.Stack
	ffs   *faultinject.FaultFS
	dir   string
}

func newChaosArm(seed uint64, withWAL bool, policy results.SyncPolicy) (*chaosArm, error) {
	a := &chaosArm{}
	var walCfg *results.WALConfig
	if withWAL {
		dir, err := os.MkdirTemp("", "encore-chaos-*")
		if err != nil {
			return nil, err
		}
		a.dir = dir
		a.ffs = faultinject.NewFaultFS()
		walCfg = &results.WALConfig{Dir: dir, FS: a.ffs, Policy: policy}
	}
	a.stack = clientsim.BuildStack(clientsim.StackConfig{
		Seed:   seed,
		Censor: censor.PaperPolicies(),
		WAL:    walCfg,
	})
	return a, nil
}

// close releases the arm; WAL close errors are expected on faulted arms
// (the injected fault is still sticky) and deliberately ignored.
func (a *chaosArm) close() {
	_ = a.stack.Close()
	if a.dir != "" {
		_ = os.RemoveAll(a.dir)
	}
}

// runArms is the two-arm skeleton every data-path scenario shares: a
// baseline arm and then a faulted arm, built from the same seed (persisting
// through a WAL on a FaultFS when withWAL) and each driven by drive. The
// arms must then agree (compareArms) before check applies the scenario's
// own invariants to the faulted arm.
func runArms(ctx *chaosCtx, withWAL bool, policy results.SyncPolicy,
	drive func(a *chaosArm, faulted bool) error, check func(faulted *chaosArm) error) error {
	var arms [2]*chaosArm
	for i := range arms {
		a, err := newChaosArm(ctx.seed, withWAL, policy)
		if err != nil {
			return err
		}
		defer a.close()
		if err := drive(a, i == 1); err != nil {
			return err
		}
		arms[i] = a
	}
	base, faulted := arms[0].stack, arms[1].stack
	if err := compareArms(base.Store, faulted.Store, base.Aggregator, faulted.Aggregator); err != nil {
		return err
	}
	return check(arms[1])
}

// runSegmentedCampaign drives visits through the arm's population in
// chaosSegments contiguous time slices, firing schedule events between
// slices (progress = slices completed). order optionally permutes which
// time slice runs when (the churn scenario submits later slices first);
// nil runs them in time order.
func runSegmentedCampaign(stack *clientsim.Stack, visits int, events []faultinject.Event, order []int) {
	sched := faultinject.NewSchedule(events...)
	if order == nil {
		order = make([]int, chaosSegments)
		for i := range order {
			order[i] = i
		}
	}
	segDur := 24 * time.Hour / chaosSegments
	for j, idx := range order {
		sched.Advance(float64(j) / chaosSegments)
		stack.Population.RunCampaign(clientsim.CampaignConfig{
			Visits:   visits / chaosSegments,
			Start:    chaosStart.Add(time.Duration(idx) * segDur),
			Duration: segDur,
			Regions:  chaosRegions,
		})
	}
	sched.Advance(1)
}

// compareArms checks the standing two-arm invariant on what each arm's
// collector holds: the faulted arm lost no submissions and reached exactly
// the baseline's DetectIncremental verdicts — the detection pipeline's
// outcome must be invariant under infrastructure faults.
func compareArms(base, faulted *results.Store, baseAgg, faultedAgg *results.Aggregator) error {
	if base.Len() != faulted.Len() {
		return fmt.Errorf("records dropped: baseline stored %d, chaos stored %d", base.Len(), faulted.Len())
	}
	detect := inference.New(inference.Config{}).DetectIncremental
	want, got := detect(baseAgg), detect(faultedAgg)
	if reflect.DeepEqual(want, got) {
		return nil
	}
	if len(want) != len(got) {
		return fmt.Errorf("verdict count diverged: baseline %d, chaos %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Errorf("verdict diverged for %s/%s: baseline %+v, chaos %+v",
				want[i].PatternKey, want[i].Region, want[i], got[i])
		}
	}
	return fmt.Errorf("verdicts diverged")
}

// censorTimeline is an adversarial schedule over one arm's stack. It fires
// on BOTH arms — the baseline must face the same adversary — so the
// invariant is that infrastructure faults add nothing on top of what the
// adversary already causes.
type censorTimeline func(stack *clientsim.Stack) []faultinject.Event

func (t censorTimeline) events(stack *clientsim.Stack) []faultinject.Event {
	if t == nil {
		return nil
	}
	return t(stack)
}

// ---------------------------------------------------------------------------
// Disk surface.

// stickyDisk is a disk-fault row: identical campaigns on both arms through a
// SyncAlways WAL, with inject applied to the faulted arm's filesystem at
// mid-campaign. The WAL must go sticky (with wantErr, when set) while the
// collector keeps serving from memory and reports degraded; once clear (if
// any) lifts the fault, the log replays to a clean prefix of what the
// collector held.
type stickyDisk struct {
	censor  censorTimeline
	inject  func(*faultinject.FaultFS)
	clear   func(*faultinject.FaultFS)
	wantErr error
}

func (d stickyDisk) run(ctx *chaosCtx) error {
	return runArms(ctx, true, results.SyncAlways, func(a *chaosArm, faulted bool) error {
		evs := d.censor.events(a.stack)
		if faulted {
			evs = append(evs, faultinject.Event{At: 0.5, Name: "disk-fault", Apply: func() { d.inject(a.ffs) }})
		}
		runSegmentedCampaign(a.stack, chaosVisits, evs, nil)
		return nil
	}, func(faulted *chaosArm) error {
		walErr := faulted.stack.WAL.Err()
		if walErr == nil {
			return fmt.Errorf("injected disk fault never made the WAL sticky")
		}
		if d.wantErr != nil && !errors.Is(walErr, d.wantErr) {
			return fmt.Errorf("WAL sticky error = %v, want %v", walErr, d.wantErr)
		}
		h, err := collectorHealth(faulted.stack.Collector)
		if err != nil {
			return err
		}
		if h.Status != api.StatusDegraded || h.WALError == "" {
			return fmt.Errorf("sticky-WAL collector health = %q (wal_error %q), want degraded with detail", h.Status, h.WALError)
		}
		if d.clear != nil {
			d.clear(faulted.ffs)
		}
		recovered, _, err := results.OpenStoreFromWALFS(faulted.dir, faulted.ffs)
		if err != nil {
			return fmt.Errorf("recovering from faulted WAL dir: %w", err)
		}
		if recovered.Len() == 0 || recovered.Len() > faulted.stack.Store.Len() {
			return fmt.Errorf("recovered %d records, want 1..%d (durable prefix)", recovered.Len(), faulted.stack.Store.Len())
		}
		ctx.logf("chaos:   sticky %v; store intact (%d records), recovered prefix %d", walErr, faulted.stack.Store.Len(), recovered.Len())
		return nil
	})
}

// collectorHealth fetches /v2/healthz from a collector over a throwaway
// loopback listener.
func collectorHealth(c *collectserver.Server) (api.HealthResponse, error) {
	srv := httptest.NewServer(c)
	defer srv.Close()
	resp, err := http.Get(srv.URL + api.V2HealthPath)
	if err != nil {
		return api.HealthResponse{}, err
	}
	defer resp.Body.Close()
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return api.HealthResponse{}, err
	}
	return h, nil
}

// scenarioDiskCrashTornTail kills the "machine" mid-write: everything synced
// before the crash must recover bit-identically, the torn unsynced tail must
// be discarded cleanly, and the in-memory arm's verdicts must still match
// the fault-free baseline.
func scenarioDiskCrashTornTail(ctx *chaosCtx) error {
	var durable []byte
	// SyncNone: durability happens only at explicit sync barriers, so the
	// final segment's records are exactly the unsynced tail the crash tears.
	return runArms(ctx, true, results.SyncNone, func(a *chaosArm, faulted bool) error {
		if !faulted {
			runSegmentedCampaign(a.stack, chaosVisits, nil, nil)
			return nil
		}
		// Three quarters of the same campaign, then a durable snapshot at a
		// sync barrier...
		var snapErr error
		snapshot := faultinject.Event{At: 0.75, Name: "sync-snapshot", Apply: func() {
			if snapErr = a.stack.WAL.Sync(); snapErr == nil {
				durable, _, snapErr = recoveredJSONL(results.OpenStoreFromWALFS(a.dir, a.ffs))
			}
		}}
		runSegmentedCampaign(a.stack, chaosVisits, []faultinject.Event{snapshot}, nil)
		if snapErr != nil {
			return fmt.Errorf("snapshot at sync barrier: %w", snapErr)
		}
		// ...then the last quarter reaches the OS (Flush) but never stable
		// storage, and the crash leaves a torn frame on the tail.
		if err := a.stack.WAL.Flush(); err != nil {
			return fmt.Errorf("flush after final segment: %w", err)
		}
		if _, err := a.ffs.Crash(9); err != nil {
			return fmt.Errorf("crash: %w", err)
		}
		return nil
	}, func(faulted *chaosArm) error {
		// Recovery happens on the real filesystem: the process is gone, the
		// FaultFS with it; only the files survive. The in-memory store ran
		// the full campaign either way (compareArms).
		after, stats, err := recoveredJSONL(results.OpenStoreFromWAL(faulted.dir))
		if err != nil {
			return fmt.Errorf("recovering crashed WAL dir: %w", err)
		}
		if !bytes.Equal(durable, after) {
			return fmt.Errorf("recovered snapshot not bit-identical: %d bytes at sync barrier, %d after crash recovery", len(durable), len(after))
		}
		ctx.logf("chaos:   crash recovery bit-identical (%d bytes, %d torn segments tolerated)", len(after), stats.TornSegments)
		return nil
	})
}

// recoveredJSONL renders a WAL recovery's store (OpenStoreFromWAL's results,
// as they come) as JSONL — the byte string two recoveries of the same log
// must agree on.
func recoveredJSONL(st *results.Store, stats results.WALRecoveryStats, err error) ([]byte, results.WALRecoveryStats, error) {
	if err != nil {
		return nil, stats, err
	}
	var buf bytes.Buffer
	err = st.WriteJSONL(&buf)
	return buf.Bytes(), stats, err
}

// ---------------------------------------------------------------------------
// Network surface.

// httpLane rewires an arm's population to submit over real loopback HTTP
// (v2 JSON POSTs through the SDK). With faults set, the SDK dials through a
// faultinject.RoundTripper (rt) — the seam the network-fault scenarios
// inject through.
type httpLane struct {
	srv     *httptest.Server
	inner   *http.Transport
	rt      *faultinject.RoundTripper
	restore func()
}

func attachHTTPLane(stack *clientsim.Stack, faults *faultinject.NetFaults) *httpLane {
	lane := &httpLane{
		srv:   httptest.NewServer(stack.Collector),
		inner: &http.Transport{},
	}
	var transport http.RoundTripper = lane.inner
	if faults != nil {
		lane.rt = faultinject.NewRoundTripper(lane.inner, *faults)
		transport = lane.rt
	}
	client := apiclient.NewWithConfig(lane.srv.URL, apiclient.Config{
		HTTPClient: &http.Client{Transport: transport, Timeout: 30 * time.Second},
		// Retry budget above the RoundTripper's consecutive-fault cap (2),
		// with near-zero backoff so a chaos run stays CI-fast.
		Retries:         4,
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 4 * time.Millisecond,
	})
	prev := stack.Population.Collector
	stack.Population.Collector = &clientsim.RemoteCollector{Client: client, UseV2: true}
	lane.restore = func() { stack.Population.Collector = prev }
	return lane
}

func (l *httpLane) close() {
	l.restore()
	l.srv.Close()
	l.inner.CloseIdleConnections()
}

// httpFaults is a network-fault row: the same campaign over loopback HTTP
// on a clean and a faulted arm, in the given time-slice order (nil: time
// order), with the censor timeline (if any) on both. The faulted arm's SDK
// dials through a RoundTripper configured by net (seeded from the scenario)
// and hit by the storms on schedule. The row's fault must fire: every storm
// response when the row has storms, otherwise at least one reset.
type httpFaults struct {
	net    faultinject.NetFaults
	storms []netStorm
	censor censorTimeline
	order  []int
}

// netStorm makes the next count requests from campaign progress at receive
// a synthesized status response, with Retry-After when retryAfter is set.
type netStorm struct {
	at         float64
	count      int
	status     int
	retryAfter string
}

func (h httpFaults) run(ctx *chaosCtx) error {
	faults := h.net
	faults.Seed = ctx.seed
	var rt *faultinject.RoundTripper
	return runArms(ctx, false, 0, func(a *chaosArm, faulted bool) error {
		var nf *faultinject.NetFaults
		if faulted {
			nf = &faults
		}
		lane := attachHTTPLane(a.stack, nf)
		defer lane.close()
		evs := h.censor.events(a.stack)
		if faulted {
			rt = lane.rt
			for _, s := range h.storms {
				evs = append(evs, faultinject.Event{At: s.at, Name: "storm", Apply: func() { rt.FailNext(s.count, s.status, s.retryAfter) }})
			}
		}
		runSegmentedCampaign(a.stack, chaosHTTPVisits, evs, h.order)
		return nil
	}, func(*chaosArm) error {
		st := rt.Stats()
		storms := 0
		for _, s := range h.storms {
			storms += s.count
		}
		if storms == 0 && st.Resets == 0 {
			return fmt.Errorf("reset fault never fired across %d requests", st.Requests)
		}
		if storms > 0 && st.StormResponses != uint64(storms) {
			return fmt.Errorf("storm responses = %d, want %d", st.StormResponses, storms)
		}
		ctx.logf("chaos:   %d requests rode out %d resets / %d storms / %d truncations / %d delays",
			st.Requests, st.Resets, st.StormResponses, st.Truncations, st.Delays)
		return nil
	})
}

// scenarioNetLatencySpikes goes through loadgen.Run itself — the
// Config.HTTPTransport seam — so the measured-path wiring is exercised too.
func scenarioNetLatencySpikes(ctx *chaosCtx) error {
	inner := &http.Transport{}
	defer inner.CloseIdleConnections()
	rt := faultinject.NewRoundTripper(inner, faultinject.NetFaults{
		Seed:        ctx.seed,
		LatencyProb: 0.3,
		Latency:     2 * time.Millisecond,
	})
	return runArms(ctx, false, 0, func(a *chaosArm, faulted bool) error {
		var transport http.RoundTripper
		if faulted {
			transport = rt
		}
		Run(a.stack, Config{
			Clients:           1,
			Visits:            chaosHTTPVisits,
			Start:             chaosStart,
			SimulatedDuration: 24 * time.Hour,
			Transport:         TransportV2,
			HTTPTransport:     transport,
		})
		return nil
	}, func(*chaosArm) error {
		st := rt.Stats()
		if st.Delays == 0 {
			return fmt.Errorf("latency fault never fired across %d requests", st.Requests)
		}
		ctx.logf("chaos:   %d of %d requests delayed; verdicts unmoved", st.Delays, st.Requests)
		return nil
	})
}

// chaosEdgeMeasurement builds the deterministic attributed records the
// federation scenario forwards: one pattern measured from four regions,
// failing only where the chaos "censor" says so (CN).
func chaosEdgeMeasurement(i int) results.Measurement {
	regions := []geo.CountryCode{"CN", "PK", "US", "DE"}
	region := regions[i%len(regions)]
	state := core.StateSuccess
	if region == "CN" {
		state = core.StateFailure
	}
	return results.Measurement{
		MeasurementID: fmt.Sprintf("chaos-%d", i),
		PatternKey:    "domain:youtube.com",
		TargetURL:     "http://youtube.com/favicon.ico",
		TaskType:      core.TaskImage,
		State:         state,
		ClientIP:      "203.0.113.9",
		Region:        region,
		Browser:       core.BrowserChrome,
		Received:      chaosStart.Add(time.Duration(i) * time.Second),
	}
}

// scenarioNetTruncatedBody aims truncated response bodies at the federation
// forwarder: the SDK surfaces a decode failure, the forwarder re-queues the
// batch, and the upstream's idempotent merge absorbs the duplicate send.
// After the final flush nothing is lagging or rejected and the upstream
// holds every record, and the forward cursor must be monotone throughout.
func scenarioNetTruncatedBody(ctx *chaosCtx) error {
	const records = 96
	const chunk = 16
	type armOut struct {
		up      *node.Node
		nstats  faultinject.NetStats
		cursors []uint64
	}
	runArm := func(faulty bool) (*armOut, error) {
		up, err := node.Open(node.Config{Index: results.NewTaskIndex(), Geo: geo.NewRegistry(1)})
		if err != nil {
			return nil, err
		}
		up.Server.Guard = nil
		up.Server.AllowAttributed = true
		upSrv := httptest.NewServer(up.Server)
		defer upSrv.Close()

		dir, err := os.MkdirTemp("", "encore-chaos-fwd-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		inner := &http.Transport{}
		defer inner.CloseIdleConnections()
		var transport http.RoundTripper = inner
		var rt *faultinject.RoundTripper
		if faulty {
			rt = faultinject.NewRoundTripper(inner, faultinject.NetFaults{Seed: ctx.seed, TruncateProb: 0.5})
			transport = rt
		}
		edge, err := node.Open(node.Config{
			Index: results.NewTaskIndex(),
			Geo:   geo.NewRegistry(1),
			WAL:   &results.WALConfig{Dir: dir, Policy: results.SyncAlways},
			Forward: &federation.ForwarderConfig{
				Client: apiclient.NewWithConfig(upSrv.URL, apiclient.Config{
					HTTPClient:   &http.Client{Transport: transport, Timeout: 30 * time.Second},
					Retries:      2,
					RetryBackoff: time.Millisecond,
				}),
				MaxBatch:      chunk,
				FlushInterval: 2 * time.Millisecond,
			},
		})
		if err != nil {
			return nil, err
		}
		defer edge.Close()
		fwd := edge.Forwarder

		// A truncated 2xx body is not retried inside the SDK (the server
		// already committed), so Flush surfaces it; the consecutive-fault
		// cap guarantees a bounded number of re-flushes converges.
		flush := func() error {
			var last error
			for attempt := 0; attempt < 20; attempt++ {
				if last = fwd.Flush(context.Background()); last == nil {
					return nil
				}
			}
			return fmt.Errorf("forwarder flush never converged: %w", last)
		}

		out := &armOut{up: up}
		for i := 0; i < records; i++ {
			if err := edge.Server.Store.Add(chaosEdgeMeasurement(i)); err != nil {
				return nil, err
			}
			if (i+1)%chunk == 0 {
				if err := flush(); err != nil {
					return nil, err
				}
				out.cursors = append(out.cursors, fwd.Stats().AckedCursor)
			}
		}
		if err := flush(); err != nil {
			return nil, err
		}
		if st := fwd.Stats(); st.Lag != 0 || st.Rejected != 0 {
			return nil, fmt.Errorf("after the final flush: forwarder lag %d, rejected %d, want 0 and 0", st.Lag, st.Rejected)
		}
		if n := up.Server.Store.Len(); n != records {
			return nil, fmt.Errorf("after the final flush the upstream holds %d records, want %d", n, records)
		}
		if err := edge.Close(); err != nil {
			return nil, err
		}
		if rt != nil {
			out.nstats = rt.Stats()
		}
		return out, nil
	}

	base, err := runArm(false)
	if err != nil {
		return fmt.Errorf("baseline arm: %w", err)
	}
	faulted, err := runArm(true)
	if err != nil {
		return fmt.Errorf("faulted arm: %w", err)
	}
	if faulted.nstats.Truncations == 0 {
		return fmt.Errorf("truncation fault never fired across %d requests", faulted.nstats.Requests)
	}
	var prev uint64
	for i, c := range faulted.cursors {
		if c < prev {
			return fmt.Errorf("forward cursor regressed at sample %d: %d after %d", i, c, prev)
		}
		prev = c
	}
	if prev != records {
		return fmt.Errorf("final forward cursor = %d, want %d", prev, records)
	}
	if err := compareArms(base.up.Server.Store, faulted.up.Server.Store, base.up.Aggregator, faulted.up.Aggregator); err != nil {
		return err
	}
	ctx.logf("chaos:   %d truncations absorbed; upstream complete (%d records), cursor monotone to %d",
		faulted.nstats.Truncations, faulted.up.Server.Store.Len(), prev)
	return nil
}

// ---------------------------------------------------------------------------
// Censor surface: the schedule-driven adversarial timelines the censor rows
// share with a disk or network fault on the chaos arm.

// throttleRampEvents squeezes CN over the campaign: first a per-pattern
// throttle, then region-wide path latency, finally a saturating ramp past
// client patience.
func throttleRampEvents(stack *clientsim.Stack) []faultinject.Event {
	throttle := func(delayMillis float64) func() {
		return func() {
			p := &censor.Policy{Region: "CN", ThrottleDelayMillis: delayMillis}
			p.AddDomain("youtube.com", censor.MechanismThrottle, "throttling ramp")
			p.AddDomain("twitter.com", censor.MechanismTCPReset, "GFW TCP reset")
			stack.Censor.SetPolicy(p)
		}
	}
	return []faultinject.Event{
		{At: 0.25, Name: "throttle-8s", Apply: throttle(8_000)},
		{At: 0.5, Name: "region-latency-12s", Apply: func() { stack.Net.SetRegionExtraLatency("CN", 12_000) }},
		{At: 0.75, Name: "throttle-saturate", Apply: func() {
			throttle(35_000)()
			stack.Net.SetRegionExtraLatency("CN", 20_000)
		}},
	}
}

// dnsFlipEvents poisons TR's DNS for twitter mid-campaign and lifts PK's
// YouTube ban near the end — the policy-flip timeline both arms share.
func dnsFlipEvents(stack *clientsim.Stack) []faultinject.Event {
	return []faultinject.Event{
		{At: 0.5, Name: "dns-poison-TR", Apply: func() {
			p := &censor.Policy{Region: "TR"}
			p.AddDomain("twitter.com", censor.MechanismDNSRedirect, "court-order flip")
			stack.Censor.SetPolicy(p)
		}},
		{At: 0.75, Name: "dns-unpoison-PK", Apply: func() { stack.Censor.RemovePolicy("PK") }},
	}
}
