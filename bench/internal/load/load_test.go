package load

import (
	"context"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"encore/internal/geo"

	"encore/bench/internal/gen"
	"encore/bench/internal/serve"
)

// The test binary doubles as the serve child, as encore-bench itself does.
func TestMain(m *testing.M) {
	if os.Getenv("ENCORE_BENCH_ROLE") == "serve" {
		os.Exit(serve.Main(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func serveSelf(args []string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ENCORE_BENCH_ROLE=serve")
	return cmd
}

// simClock is a simulated clock: waiting advances it, and so does work.
type simClock struct{ now time.Duration }

func (c *simClock) Now() time.Duration { return c.now }
func (c *simClock) Until(d time.Duration) {
	if c.now < d {
		c.now = d
	}
}

// An open loop must charge a stall to every operation it delayed: each is
// timed from when it was due, not from when the generator got round to it.
func TestPaceChargesAStallToLaterOperations(t *testing.T) {
	const ms = time.Millisecond
	c := &simClock{}
	due := []time.Duration{10 * ms, 20 * ms, 30 * ms, 40 * ms, 100 * ms}
	cost := []time.Duration{1 * ms, 35 * ms, 1 * ms, 1 * ms, 1 * ms} // the second operation stalls
	got := pace(c, due, func(i int) { c.now += cost[i] })

	wantStart := []time.Duration{10 * ms, 20 * ms, 55 * ms, 56 * ms, 100 * ms}
	wantLatency := []time.Duration{1 * ms, 35 * ms, 26 * ms, 17 * ms, 1 * ms}
	wantLag := []time.Duration{0, 0, 25 * ms, 16 * ms, 0}
	for i, g := range got {
		if g.start != wantStart[i] {
			t.Errorf("operation %d started at %v, want %v", i, g.start, wantStart[i])
		}
		if g.latency() != wantLatency[i] {
			t.Errorf("operation %d latency %v, want %v (from its due time)", i, g.latency(), wantLatency[i])
		}
		if g.lag() != wantLag[i] {
			t.Errorf("operation %d lag %v, want %v", i, g.lag(), wantLag[i])
		}
		if g.start < g.due {
			t.Errorf("operation %d started %v before it was due", i, g.due-g.start)
		}
	}
}

// The timekeeper hands out every visit's token, in each visitor's order and
// never before the visit is due.
func TestReleaseIsNeverEarly(t *testing.T) {
	const ms = time.Millisecond
	dues := [][]time.Duration{{2 * ms, 9 * ms, 9 * ms, 30 * ms}, {1 * ms, 20 * ms}}
	start := time.Now()
	tokens := release(context.Background(), start, dues)
	for w, ds := range dues {
		for i, d := range ds {
			<-tokens[w]
			if got := time.Since(start); got < d {
				t.Errorf("visitor %d got the token of visit %d after %v, before it was due at %v", w, i, got, d)
			}
		}
		if _, open := <-tokens[w]; open {
			t.Errorf("visitor %d was handed more tokens than it has visits", w)
		}
	}

	// A cancelled run closes the channels, so no visitor waits for ever.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tokens = release(ctx, time.Now(), [][]time.Duration{{time.Hour}})
	select {
	case <-tokens[0]:
	case <-time.After(5 * time.Second):
		t.Error("a cancelled timekeeper left its visitor waiting")
	}
}

// Latencies are sliced as spans of time, so they must be merged in the
// order the replies arrived, not caller by caller.
func TestByArrivalOrdersAcrossCallers(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	a := &caller{ops: []op{{at(10), 1}, {at(30), 3}, {at(50), 5}}}
	b := &caller{ops: []op{{at(20), 2}, {at(40), 4}}}
	got := byArrival([]*caller{a, b})
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if got[i] != want {
			t.Fatalf("merged latencies %v, want them in arrival order 1..5", got)
		}
	}
}

// A closed loop whose cores idled while callers had work fails its run; the
// drain workload's wait does not count against it.
func TestAccountHoldsClosedLoopsToTheirBusyShare(t *testing.T) {
	cores := time.Duration(runtime.NumCPU())
	busy := slice{records: 1000, wall: time.Second, genCPU: cores * 300 * time.Millisecond, sutCPU: cores * 650 * time.Millisecond}
	idle := slice{records: 1000, wall: time.Second, genCPU: cores * 100 * time.Millisecond, sutCPU: cores * 300 * time.Millisecond}
	waited := busy
	waited.wall = 3 * time.Second // two seconds of waiting for the drain
	for _, tc := range []struct {
		name          string
		total, loaded slice
		fails         bool
	}{
		{"busy", busy, busy, false},
		{"idle", idle, idle, true},
		{"drain judged on its push", waited, busy, false},
	} {
		r := &run{spec: Spec{MinCoresBusy: minCoresBusy}, res: &Result{Layer: map[string]float64{}}}
		r.account(tc.total, tc.loaded, serve.Stats{}, serve.Stats{})
		if got := len(r.res.Failures) > 0; got != tc.fails {
			t.Errorf("%s: busy share %.2f, failures %v; want a failure: %t", tc.name, r.res.Layer["gen.cores_busy_share"], r.res.Failures, tc.fails)
		}
	}
	r := &run{res: &Result{Layer: map[string]float64{}}}
	r.trips.Store(12)
	r.retries(10)
	if len(r.res.Failures) != 1 || r.res.Layer["client.retries"] != 2 {
		t.Errorf("two round trips beyond the calls made: retries %v, failures %v", r.res.Layer["client.retries"], r.res.Failures)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name holds spaces and a closing parenthesis.
	line := "4242 (encore) bench) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 5 0 12345 1000000 500 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	user, sys, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if user != 2500*time.Millisecond || sys != 750*time.Millisecond {
		t.Errorf("parsed user %v sys %v, want 2.5s and 750ms", user, sys)
	}
	if _, _, err := parseProcStat([]byte("1 (x) S 1")); err == nil {
		t.Error("a short stat line parsed without error")
	}
}

func TestUpstreamLags(t *testing.T) {
	start := time.Now()
	acks := newAckLog(start, 4)
	for i := 0; i < 3; i++ {
		acks.at[i].Store(int64(time.Duration(i+1) * 10 * time.Millisecond)) // acks at 10, 20, 30 ms
	}
	acks.n.Store(3)
	samples := []countSample{{5 * time.Millisecond, 0}, {25 * time.Millisecond, 1}, {45 * time.Millisecond, 3}}
	got := upstreamLags(acks, samples)
	want := []float64{15, 25, 15}
	if len(got) != len(want) {
		t.Fatalf("lags %v, want %v", got, want)
	}
	for i := range want {
		if d := got[i] - want[i]; d < -0.01 || d > 0.01 {
			t.Errorf("lag %d = %.2f ms, want %.0f ms", i, got[i], want[i])
		}
	}
}

func TestCheckVerdicts(t *testing.T) {
	truth := gen.NewTruth(1, geo.NewRegistry(1))
	var filteredPattern string
	for p := 0; p < gen.Patterns; p++ {
		if truth.Filtered(gen.PatternKey(p), "CN") {
			filteredPattern = gen.PatternKey(p)
			break
		}
	}
	if filteredPattern == "" {
		t.Fatal("seed 1 filters nothing in CN")
	}
	sent := map[cell]tally{
		{filteredPattern, "CN"}: {completed: 40, successes: 3},
		{filteredPattern, "US"}: {completed: 40, successes: 39},
	}
	good := []serve.Verdict{
		{Pattern: filteredPattern, Region: "CN", Completed: 40, Successes: 3, Filtered: true},
		{Pattern: filteredPattern, Region: "US", Completed: 40, Successes: 39, Filtered: false},
	}
	if failures, wrong := checkVerdicts(good, sent, truth); len(failures) != 0 || wrong != 0 {
		t.Errorf("correct verdicts were refused: %v", failures)
	}
	missed := append([]serve.Verdict(nil), good...)
	missed[0].Filtered = false
	if failures, wrong := checkVerdicts(missed, sent, truth); wrong != 1 || len(failures) != 1 {
		t.Errorf("a missed filtered cell gave %d wrong verdicts, failures %v", wrong, failures)
	}
	lost := append([]serve.Verdict(nil), good...)
	lost[1].Completed, lost[1].Successes = 39, 38
	if failures, _ := checkVerdicts(lost, sent, truth); len(failures) != 1 || !strings.Contains(failures[0], "40 and 39 were submitted") {
		t.Errorf("a lost measurement was not reported: %v", failures)
	}
	if failures, _ := checkVerdicts(good[:1], sent, truth); len(failures) != 1 {
		t.Errorf("a cell missing from the detector's output was not reported: %v", failures)
	}
}

// Every workload, at about a thousandth of its size, against a real serve
// child over loopback: every operation must succeed, every check must hold,
// every end-to-end metric must be reported, and nothing may be left behind.
func TestWorkloadsSmoke(t *testing.T) {
	for _, spec := range Specs {
		t.Run(spec.Name, func(t *testing.T) {
			// Most of a smoke run is waiting for its children to start and
			// stop, so the four overlap.
			t.Parallel()
			tmp := t.TempDir()
			seconds := 0.3
			if spec.PushBlocks > 0 {
				// Outside catch-up mode the forwarder ships one batch of 128
				// per 200 ms once commits stop, so a small push must be very
				// small to drain in seconds.
				seconds, spec.WarmBlocks, spec.PushBlocks = 0.001, 1, 1
			}
			if spec.WarmBlocks > 16 {
				spec.WarmBlocks = 16
			}
			// A stretch of a few dozen milliseconds is mostly start and stop,
			// and a few CPU-clock ticks long: the busy share means nothing.
			spec.MinCoresBusy = 0
			res, err := Run(context.Background(), spec, Options{
				Seed: 11, Seconds: seconds, Workers: 1, Setups: 2, Serve: serveSelf, TmpDir: tmp, ProbeLag: spec.Open,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct() {
				t.Fatalf("%d of %d operations failed; failed checks: %v", res.Failed, res.Attempted, res.Failures)
			}
			for _, name := range []string{"setup_s", "records_per_s", "cpu_us_per_record", "live_bytes_per_id"} {
				if v, ok := res.EndToEnd[name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (reported: %t), want a positive value", name, v, ok)
				}
			}
			if res.Sizes["ids"] == 0 || res.Attempted == 0 {
				t.Errorf("the run did no work: %+v", res.Sizes)
			}
			if res.Layer["sut.export_records_per_s"] <= 0 || res.Layer["client.op_p50_ms"] <= 0 || res.Layer["client.op_p99_ms"] <= 0 {
				t.Errorf("export rate %v, median latency %v, tail latency %v; want all three measured",
					res.Layer["sut.export_records_per_s"], res.Layer["client.op_p50_ms"], res.Layer["client.op_p99_ms"])
			}
			if got := res.Layer["client.retries"]; got != 0 {
				t.Errorf("the SDK retried %v requests", got)
			}
			if spec.Recover && res.Layer["sut.recovery_s"] <= 0 {
				t.Error("the recovery phase did not run")
			}
			if spec.Open && res.Layer["federation.upstream_lag_p50_ms"] <= 0 {
				t.Error("the upstream-lag probe measured nothing")
			}
			if left, _ := os.ReadDir(tmp); len(left) != 0 {
				t.Errorf("the run left %d entries in its temporary directory", len(left))
			}
		})
	}
}

// A child that cannot start must fail the run, not hang it.
func TestRunFailsWhenServeCannotStart(t *testing.T) {
	_, err := Run(context.Background(), Specs[1], Options{
		Seed: 1, Seconds: 0.1, Workers: 1, Setups: 1, TmpDir: t.TempDir(),
		Serve: func([]string) *exec.Cmd { return exec.Command("false") },
	})
	if err == nil {
		t.Fatal("a run whose child exits at once reported success")
	}
}
