package loadgen

// The chaos runner: deterministic full-stack fault campaigns over the four
// injection surfaces internal/faultinject exposes — the filesystem the WAL
// writes through, the http.RoundTripper the SDK and federation forwarder
// dial through, schedule-driven adversarial censor/netsim grids, and the
// replicated coordinator control plane (partitions, crash/restart, gossip
// storms; see chaos_coord.go). Every
// scenario runs two arms from the same seed: a fault-free baseline and a
// faulted arm, then checks the standing invariants (DetectIncremental
// verdicts equal, nothing dropped with a WAL attached, recovered snapshots
// bit-identical, degraded health reported, forwarder cursor monotone, no
// goroutine leaks). A failing scenario's error always carries the runner
// seed, so any failure replays with RunChaos(thatSeed, ...).

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
	// "network", or "censor".
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
func ChaosScenarios() []ChaosScenario {
	return []ChaosScenario{
		{Name: "disk-fsync-fail", Surface: "disk", run: scenarioDiskFsyncFail},
		{Name: "disk-enospc", Surface: "disk", run: scenarioDiskENOSPC},
		{Name: "disk-short-write", Surface: "disk", run: scenarioDiskShortWrite},
		{Name: "disk-crash-torn-tail", Surface: "disk", run: scenarioDiskCrashTornTail},
		{Name: "net-reset-storm", Surface: "network", run: scenarioNetResetStorm},
		{Name: "net-5xx-storm", Surface: "network", run: scenarioNet5xxStorm},
		{Name: "net-latency-spikes", Surface: "network", run: scenarioNetLatencySpikes},
		{Name: "net-truncated-body", Surface: "network", run: scenarioNetTruncatedBody},
		{Name: "censor-throttle-ramp", Surface: "censor", run: scenarioCensorThrottleRamp},
		{Name: "censor-dns-flip", Surface: "censor", run: scenarioCensorDNSFlip},
		{Name: "churn-backdated", Surface: "censor", run: scenarioChurnBackdated},
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
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := faultinject.NewRNG(seed)
	baseline := runtime.NumGoroutine()
	var out []ChaosResult
	for _, sc := range ChaosScenarios() {
		sub := rng.Uint64()
		logf("chaos: %-22s surface=%-7s seed=%d", sc.Name, sc.Surface, sub)
		err := sc.run(&chaosCtx{seed: sub, logf: logf})
		if err == nil {
			// The no-goroutine-leak invariant holds between scenarios: every
			// server, forwarder, WAL flusher, and transport a scenario
			// started must be gone before the next one begins.
			err = awaitGoroutineBaseline(baseline)
		}
		if err != nil {
			err = fmt.Errorf("chaos scenario %s failed (replay with seed %d): %w", sc.Name, seed, err)
		}
		out = append(out, ChaosResult{Name: sc.Name, Surface: sc.Surface, Seed: sub, Err: err})
	}
	return out
}

// FindChaosScenario looks one scenario up by name in the registry.
func FindChaosScenario(name string) (ChaosScenario, bool) {
	for _, sc := range ChaosScenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return ChaosScenario{}, false
}

// RunChaosScenario executes a single named scenario with the given seed
// used directly as the scenario sub-seed (no derivation: a campaign job's
// sub-seed is already drawn from the spec's stream), including the
// goroutine-baseline check RunChaos applies between scenarios. An unknown
// name is reported as a failed result rather than a panic — campaign specs
// validate names up front, so this is a backstop.
func RunChaosScenario(name string, seed uint64, logf func(format string, args ...any)) ChaosResult {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sc, ok := FindChaosScenario(name)
	if !ok {
		return ChaosResult{Name: name, Seed: seed, Err: fmt.Errorf("unknown chaos scenario %q", name)}
	}
	baseline := runtime.NumGoroutine()
	logf("chaos: %-22s surface=%-7s seed=%d", sc.Name, sc.Surface, seed)
	err := sc.run(&chaosCtx{seed: seed, logf: logf})
	if err == nil {
		err = awaitGoroutineBaseline(baseline)
	}
	if err != nil {
		err = fmt.Errorf("chaos scenario %s failed (replay with -chaos-scenario %s -seed %d): %w", sc.Name, sc.Name, seed, err)
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
	if a.stack != nil {
		_ = a.stack.Close()
	}
	if a.dir != "" {
		_ = os.RemoveAll(a.dir)
	}
}

// runSegmentedCampaign drives visits through the arm's population in
// chaosSegments contiguous time slices, firing schedule events between
// slices (progress = slices completed). order optionally permutes which
// time slice runs when (the churn scenario submits later slices first);
// nil runs them in time order.
func runSegmentedCampaign(stack *clientsim.Stack, visits int, events []faultinject.Event, order []int) clientsim.CampaignResult {
	sched := faultinject.NewSchedule(events...)
	if order == nil {
		order = make([]int, chaosSegments)
		for i := range order {
			order[i] = i
		}
	}
	total := clientsim.CampaignResult{ByRegion: make(map[geo.CountryCode]int)}
	duration := 24 * time.Hour
	segVisits := visits / chaosSegments
	segDur := duration / chaosSegments
	for j, idx := range order {
		sched.Advance(float64(j) / float64(chaosSegments))
		part := stack.Population.RunCampaign(clientsim.CampaignConfig{
			Visits:   segVisits,
			Start:    chaosStart.Add(time.Duration(idx) * segDur),
			Duration: segDur,
			Regions:  chaosRegions,
		})
		total.Visits += part.Visits
		total.OriginUnreachable += part.OriginUnreachable
		total.CoordinatorBlocked += part.CoordinatorBlocked
		total.TasksAssigned += part.TasksAssigned
		total.TasksSubmitted += part.TasksSubmitted
		for region, n := range part.ByRegion {
			total.ByRegion[region] += n
		}
	}
	sched.Advance(1)
	return total
}

// armVerdicts runs the incremental detector over an aggregation tier.
func armVerdicts(agg *results.Aggregator) []inference.Verdict {
	return inference.New(inference.Config{}).DetectIncremental(agg)
}

// compareVerdicts checks the faulted arm reached exactly the fault-free
// arm's conclusions — the detection pipeline's outcome must be invariant
// under infrastructure faults.
func compareVerdicts(baseline, faulted []inference.Verdict) error {
	if reflect.DeepEqual(baseline, faulted) {
		return nil
	}
	if len(baseline) != len(faulted) {
		return fmt.Errorf("verdict count diverged: baseline %d, chaos %d", len(baseline), len(faulted))
	}
	for i := range baseline {
		if !reflect.DeepEqual(baseline[i], faulted[i]) {
			return fmt.Errorf("verdict diverged for %s/%s: baseline %+v, chaos %+v",
				baseline[i].PatternKey, baseline[i].Region, baseline[i], faulted[i])
		}
	}
	return fmt.Errorf("verdicts diverged")
}

// compareStores checks the faulted arm lost no submissions.
func compareStores(baseline, faulted *results.Store) error {
	if baseline.Len() != faulted.Len() {
		return fmt.Errorf("records dropped: baseline stored %d, chaos stored %d", baseline.Len(), faulted.Len())
	}
	return nil
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

// recoveredJSONL replays the WAL in dir into a fresh store and renders it
// as JSONL — the byte string two recoveries of the same log must agree on.
func recoveredJSONL(dir string, fs faultinject.FS) ([]byte, results.WALRecoveryStats, error) {
	st, stats, err := results.OpenStoreFromWALFS(dir, fs)
	if err != nil {
		return nil, stats, err
	}
	var buf bytes.Buffer
	if err := st.WriteJSONL(&buf); err != nil {
		return nil, stats, err
	}
	return buf.Bytes(), stats, nil
}

// ---------------------------------------------------------------------------
// Disk surface.

// diskFault parameterizes the three sticky-disk scenarios, which share a
// skeleton: identical campaigns on both arms, a mid-campaign disk fault on
// the chaos arm, then the full invariant battery plus recovery.
type diskFault struct {
	arm     func(a *chaosArm) faultinject.Event
	disarm  func(a *chaosArm)
	wantErr error
}

func runStickyDiskScenario(ctx *chaosCtx, fault diskFault) error {
	base, err := newChaosArm(ctx.seed, true, results.SyncAlways)
	if err != nil {
		return err
	}
	defer base.close()
	faulted, err := newChaosArm(ctx.seed, true, results.SyncAlways)
	if err != nil {
		return err
	}
	defer faulted.close()

	runSegmentedCampaign(base.stack, chaosVisits, nil, nil)
	runSegmentedCampaign(faulted.stack, chaosVisits, []faultinject.Event{fault.arm(faulted)}, nil)

	walErr := faulted.stack.WAL.Err()
	if walErr == nil {
		return fmt.Errorf("injected disk fault never made the WAL sticky")
	}
	if fault.wantErr != nil && !errors.Is(walErr, fault.wantErr) {
		return fmt.Errorf("WAL sticky error = %v, want %v", walErr, fault.wantErr)
	}
	// The collector keeps serving from memory and reports the degradation.
	if err := compareStores(base.stack.Store, faulted.stack.Store); err != nil {
		return err
	}
	if err := compareVerdicts(armVerdicts(base.stack.Aggregator), armVerdicts(faulted.stack.Aggregator)); err != nil {
		return err
	}
	h, err := collectorHealth(faulted.stack.Collector)
	if err != nil {
		return err
	}
	if h.Status != api.StatusDegraded || h.WALError == "" {
		return fmt.Errorf("sticky-WAL collector health = %q (wal_error %q), want degraded with detail", h.Status, h.WALError)
	}
	// Recovery: once the fault clears, the log replays to a clean prefix of
	// what the collector held — never more, never corrupt.
	fault.disarm(faulted)
	recovered, _, err := results.OpenStoreFromWALFS(faulted.dir, faulted.ffs)
	if err != nil {
		return fmt.Errorf("recovering from faulted WAL dir: %w", err)
	}
	if recovered.Len() == 0 || recovered.Len() > faulted.stack.Store.Len() {
		return fmt.Errorf("recovered %d records, want 1..%d (durable prefix)", recovered.Len(), faulted.stack.Store.Len())
	}
	ctx.logf("chaos:   sticky %v; store intact (%d records), recovered prefix %d", walErr, faulted.stack.Store.Len(), recovered.Len())
	return nil
}

func scenarioDiskFsyncFail(ctx *chaosCtx) error {
	return runStickyDiskScenario(ctx, diskFault{
		arm: func(a *chaosArm) faultinject.Event {
			return faultinject.Event{At: 0.5, Name: "fsync-fail", Apply: a.ffs.InjectFsyncFailures}
		},
		disarm:  func(a *chaosArm) { a.ffs.ClearFsyncFailures() },
		wantErr: faultinject.ErrInjectedFsync,
	})
}

func scenarioDiskENOSPC(ctx *chaosCtx) error {
	return runStickyDiskScenario(ctx, diskFault{
		arm: func(a *chaosArm) faultinject.Event {
			// The disk "fills" mid-campaign: 8 KiB of budget absorbs a few
			// more appends, then every write fails with ENOSPC.
			return faultinject.Event{At: 0.5, Name: "enospc", Apply: func() { a.ffs.SetWriteBudget(8 << 10) }}
		},
		disarm:  func(a *chaosArm) { a.ffs.SetWriteBudget(-1) },
		wantErr: faultinject.ErrInjectedNoSpace,
	})
}

func scenarioDiskShortWrite(ctx *chaosCtx) error {
	return runStickyDiskScenario(ctx, diskFault{
		arm: func(a *chaosArm) faultinject.Event {
			return faultinject.Event{At: 0.5, Name: "short-write", Apply: func() { a.ffs.InjectShortWrites(1) }}
		},
		disarm:  func(a *chaosArm) {},
		wantErr: nil, // surfaces as a wrapped io.ErrShortWrite via bufio
	})
}

// scenarioDiskCrashTornTail kills the "machine" mid-write: everything synced
// before the crash must recover bit-identically, the torn unsynced tail must
// be discarded cleanly, and the in-memory arm's verdicts must still match
// the fault-free baseline.
func scenarioDiskCrashTornTail(ctx *chaosCtx) error {
	// SyncNone: durability happens only at explicit sync barriers, so the
	// final segment's records are exactly the unsynced tail the crash tears.
	base, err := newChaosArm(ctx.seed, true, results.SyncNone)
	if err != nil {
		return err
	}
	defer base.close()
	faulted, err := newChaosArm(ctx.seed, true, results.SyncNone)
	if err != nil {
		return err
	}
	defer faulted.close()

	runSegmentedCampaign(base.stack, chaosVisits, nil, nil)

	// Faulted arm: three quarters of the same campaign, then a durable
	// snapshot at a sync barrier...
	seg := chaosVisits / chaosSegments
	segDur := 24 * time.Hour / chaosSegments
	runSeg := func(idx int) {
		faulted.stack.Population.RunCampaign(clientsim.CampaignConfig{
			Visits:   seg,
			Start:    chaosStart.Add(time.Duration(idx) * segDur),
			Duration: segDur,
			Regions:  chaosRegions,
		})
	}
	for idx := 0; idx < 3; idx++ {
		runSeg(idx)
	}
	if err := faulted.stack.WAL.Sync(); err != nil {
		return fmt.Errorf("sync before snapshot: %w", err)
	}
	durable, _, err := recoveredJSONL(faulted.dir, faulted.ffs)
	if err != nil {
		return fmt.Errorf("snapshot at sync barrier: %w", err)
	}
	// ...then more records that reach the OS (Flush) but never stable
	// storage, and the crash leaves a torn frame on the tail.
	runSeg(3)
	if err := faulted.stack.WAL.Flush(); err != nil {
		return fmt.Errorf("flush after final segment: %w", err)
	}
	if _, err := faulted.ffs.Crash(9); err != nil {
		return fmt.Errorf("crash: %w", err)
	}

	// Recovery happens on the real filesystem: the process is gone, the
	// FaultFS with it; only the files survive.
	after, stats, err := recoveredJSONL(faulted.dir, faultinject.OS())
	if err != nil {
		return fmt.Errorf("recovering crashed WAL dir: %w", err)
	}
	if !bytes.Equal(durable, after) {
		return fmt.Errorf("recovered snapshot not bit-identical: %d bytes at sync barrier, %d after crash recovery", len(durable), len(after))
	}
	// The in-memory store ran the full campaign either way.
	if err := compareStores(base.stack.Store, faulted.stack.Store); err != nil {
		return err
	}
	if err := compareVerdicts(armVerdicts(base.stack.Aggregator), armVerdicts(faulted.stack.Aggregator)); err != nil {
		return err
	}
	ctx.logf("chaos:   crash recovery bit-identical (%d bytes, %d torn segments tolerated)", len(after), stats.TornSegments)
	return nil
}

// ---------------------------------------------------------------------------
// Network surface.

// httpLane rewires an arm's population to submit over real loopback HTTP
// (v2 JSON POSTs through the SDK), with the transport wrapped by the
// caller — the seam the network-fault scenarios inject through.
type httpLane struct {
	srv     *httptest.Server
	inner   *http.Transport
	restore func()
}

func attachHTTPLane(stack *clientsim.Stack, wrap func(http.RoundTripper) http.RoundTripper) *httpLane {
	lane := &httpLane{
		srv:   httptest.NewServer(stack.Collector),
		inner: &http.Transport{},
	}
	var transport http.RoundTripper = lane.inner
	if wrap != nil {
		transport = wrap(transport)
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

// runHTTPArms runs the same campaign over HTTP on a clean arm and a faulted
// arm and applies the shared invariants. wrap builds the faulted arm's
// RoundTripper. censorEvents (optional) is the adversarial timeline and
// fires on BOTH arms — the baseline must face the same adversary;
// faultEvents (optional) are the infrastructure faults and fire on the
// faulted arm only.
func runHTTPArms(ctx *chaosCtx, wrap func(http.RoundTripper) *faultinject.RoundTripper,
	censorEvents func(a *chaosArm) []faultinject.Event,
	faultEvents func(rt *faultinject.RoundTripper) []faultinject.Event,
	order []int,
	check func(rt *faultinject.RoundTripper) error) error {

	base, err := newChaosArm(ctx.seed, false, 0)
	if err != nil {
		return err
	}
	defer base.close()
	baseLane := attachHTTPLane(base.stack, nil)
	var baseEvs []faultinject.Event
	if censorEvents != nil {
		baseEvs = censorEvents(base)
	}
	runSegmentedCampaign(base.stack, chaosHTTPVisits, baseEvs, order)
	baseLane.close()

	faulted, err := newChaosArm(ctx.seed, false, 0)
	if err != nil {
		return err
	}
	defer faulted.close()
	var rt *faultinject.RoundTripper
	lane := attachHTTPLane(faulted.stack, func(inner http.RoundTripper) http.RoundTripper {
		rt = wrap(inner)
		return rt
	})
	var evs []faultinject.Event
	if censorEvents != nil {
		evs = append(evs, censorEvents(faulted)...)
	}
	if faultEvents != nil {
		evs = append(evs, faultEvents(rt)...)
	}
	runSegmentedCampaign(faulted.stack, chaosHTTPVisits, evs, order)
	lane.close()

	if err := check(rt); err != nil {
		return err
	}
	if err := compareStores(base.stack.Store, faulted.stack.Store); err != nil {
		return err
	}
	if err := compareVerdicts(armVerdicts(base.stack.Aggregator), armVerdicts(faulted.stack.Aggregator)); err != nil {
		return err
	}
	st := rt.Stats()
	ctx.logf("chaos:   %d requests rode out %d resets / %d storms / %d truncations / %d delays",
		st.Requests, st.Resets, st.StormResponses, st.Truncations, st.Delays)
	return nil
}

func scenarioNetResetStorm(ctx *chaosCtx) error {
	return runHTTPArms(ctx,
		func(inner http.RoundTripper) *faultinject.RoundTripper {
			return faultinject.NewRoundTripper(inner, faultinject.NetFaults{Seed: ctx.seed, ResetProb: 0.35})
		},
		nil, nil, nil,
		func(rt *faultinject.RoundTripper) error {
			if st := rt.Stats(); st.Resets == 0 {
				return fmt.Errorf("reset fault never fired across %d requests", st.Requests)
			}
			return nil
		})
}

func scenarioNet5xxStorm(ctx *chaosCtx) error {
	const perStorm = 5
	return runHTTPArms(ctx,
		func(inner http.RoundTripper) *faultinject.RoundTripper {
			return faultinject.NewRoundTripper(inner, faultinject.NetFaults{Seed: ctx.seed})
		},
		nil,
		func(rt *faultinject.RoundTripper) []faultinject.Event {
			// Two overload storms, one with a Retry-After flood: every
			// response until the counter drains is a synthesized 5xx
			// carrying Retry-After, exactly what a shedding upstream emits.
			return []faultinject.Event{
				{At: 0.25, Name: "503-storm", Apply: func() { rt.FailNext(perStorm, http.StatusServiceUnavailable, "0") }},
				{At: 0.75, Name: "500-storm", Apply: func() { rt.FailNext(perStorm, http.StatusInternalServerError, "") }},
			}
		},
		nil,
		func(rt *faultinject.RoundTripper) error {
			if st := rt.Stats(); st.StormResponses != 2*perStorm {
				return fmt.Errorf("storm responses = %d, want %d", st.StormResponses, 2*perStorm)
			}
			return nil
		})
}

// scenarioNetLatencySpikes goes through loadgen.Run itself — the
// Config.HTTPTransport seam — so the measured-path wiring is exercised too.
func scenarioNetLatencySpikes(ctx *chaosCtx) error {
	runArm := func(transport http.RoundTripper) (*chaosArm, error) {
		a, err := newChaosArm(ctx.seed, false, 0)
		if err != nil {
			return nil, err
		}
		Run(a.stack, Config{
			Clients:           1,
			Visits:            chaosHTTPVisits,
			Start:             chaosStart,
			SimulatedDuration: 24 * time.Hour,
			Transport:         TransportV2,
			HTTPTransport:     transport,
		})
		return a, nil
	}
	base, err := runArm(nil)
	if err != nil {
		return err
	}
	defer base.close()
	inner := &http.Transport{}
	defer inner.CloseIdleConnections()
	rt := faultinject.NewRoundTripper(inner, faultinject.NetFaults{
		Seed:        ctx.seed,
		LatencyProb: 0.3,
		Latency:     2 * time.Millisecond,
	})
	faulted, err := runArm(rt)
	if err != nil {
		return err
	}
	defer faulted.close()
	st := rt.Stats()
	if st.Delays == 0 {
		return fmt.Errorf("latency fault never fired across %d requests", st.Requests)
	}
	if err := compareStores(base.stack.Store, faulted.stack.Store); err != nil {
		return err
	}
	if err := compareVerdicts(armVerdicts(base.stack.Aggregator), armVerdicts(faulted.stack.Aggregator)); err != nil {
		return err
	}
	ctx.logf("chaos:   %d of %d requests delayed; verdicts unmoved", st.Delays, st.Requests)
	return nil
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
// Nothing may be dropped (WAL attached), and the forward cursor must be
// monotone throughout.
func scenarioNetTruncatedBody(ctx *chaosCtx) error {
	const records = 96
	const chunk = 16
	type armOut struct {
		verdicts []inference.Verdict
		upLen    int
		fstats   federation.ForwarderStats
		nstats   faultinject.NetStats
		cursors  []uint64
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

		out := &armOut{}
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
		out.fstats = fwd.Stats()
		if err := edge.Close(); err != nil {
			return nil, err
		}
		if rt != nil {
			out.nstats = rt.Stats()
		}
		out.verdicts = armVerdicts(up.Aggregator)
		out.upLen = up.Server.Store.Len()
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
	if faulted.fstats.Dropped != 0 {
		return fmt.Errorf("WAL-backed forwarder dropped %d records under truncation faults", faulted.fstats.Dropped)
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
	if base.upLen != faulted.upLen {
		return fmt.Errorf("upstream records diverged: baseline %d, chaos %d", base.upLen, faulted.upLen)
	}
	if err := compareVerdicts(base.verdicts, faulted.verdicts); err != nil {
		return err
	}
	ctx.logf("chaos:   %d truncations absorbed; upstream complete (%d records), cursor monotone to %d",
		faulted.nstats.Truncations, faulted.upLen, prev)
	return nil
}

// ---------------------------------------------------------------------------
// Censor surface: schedule-driven adversarial grids, with an infrastructure
// fault layered onto the chaos arm only. The adversarial timeline runs on
// BOTH arms — the invariant is that infrastructure faults add nothing on
// top of what the adversary already causes.

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

func scenarioCensorThrottleRamp(ctx *chaosCtx) error {
	base, err := newChaosArm(ctx.seed, true, results.SyncAlways)
	if err != nil {
		return err
	}
	defer base.close()
	faulted, err := newChaosArm(ctx.seed, true, results.SyncAlways)
	if err != nil {
		return err
	}
	defer faulted.close()

	runSegmentedCampaign(base.stack, chaosVisits, throttleRampEvents(base.stack), nil)
	chaosEvents := append(throttleRampEvents(faulted.stack), faultinject.Event{
		At: 0.5, Name: "wal-fsync-fail", Apply: faulted.ffs.InjectFsyncFailures,
	})
	runSegmentedCampaign(faulted.stack, chaosVisits, chaosEvents, nil)

	if faulted.stack.WAL.Err() == nil {
		return fmt.Errorf("injected fsync fault never made the WAL sticky")
	}
	if err := compareStores(base.stack.Store, faulted.stack.Store); err != nil {
		return err
	}
	if err := compareVerdicts(armVerdicts(base.stack.Aggregator), armVerdicts(faulted.stack.Aggregator)); err != nil {
		return err
	}
	h, err := collectorHealth(faulted.stack.Collector)
	if err != nil {
		return err
	}
	if h.Status != api.StatusDegraded {
		return fmt.Errorf("collector health under ramp+disk fault = %q, want degraded", h.Status)
	}
	ctx.logf("chaos:   throttling ramp verdicts identical under sticky WAL")
	return nil
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

func scenarioCensorDNSFlip(ctx *chaosCtx) error {
	return runHTTPArms(ctx,
		func(inner http.RoundTripper) *faultinject.RoundTripper {
			return faultinject.NewRoundTripper(inner, faultinject.NetFaults{Seed: ctx.seed, ResetProb: 0.3})
		},
		func(a *chaosArm) []faultinject.Event { return dnsFlipEvents(a.stack) },
		nil,
		nil,
		func(rt *faultinject.RoundTripper) error {
			if st := rt.Stats(); st.Resets == 0 {
				return fmt.Errorf("reset fault never fired across %d requests", st.Requests)
			}
			return nil
		})
}

func scenarioChurnBackdated(ctx *chaosCtx) error {
	// Clients churn through the campaign out of time order: later time
	// slices upload first, earlier slices arrive last as backdated v2
	// batches. The collector must keep its timeline straight either way.
	order := []int{2, 0, 3, 1}
	const perStorm = 4
	return runHTTPArms(ctx,
		func(inner http.RoundTripper) *faultinject.RoundTripper {
			return faultinject.NewRoundTripper(inner, faultinject.NetFaults{Seed: ctx.seed})
		},
		nil,
		func(rt *faultinject.RoundTripper) []faultinject.Event {
			return []faultinject.Event{
				{At: 0.5, Name: "mid-churn-storm", Apply: func() { rt.FailNext(perStorm, http.StatusServiceUnavailable, "0") }},
			}
		},
		order,
		func(rt *faultinject.RoundTripper) error {
			if st := rt.Stats(); st.StormResponses != perStorm {
				return fmt.Errorf("storm responses = %d, want %d", st.StormResponses, perStorm)
			}
			return nil
		})
}
