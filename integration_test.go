package encore

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/collectserver"
	"encore/internal/coordserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/originserver"
	"encore/internal/pipeline"
	"encore/internal/results"
	"encore/internal/scheduler"
)

// TestWireFormatEndToEnd exercises the real HTTP wire format across the three
// servers: the origin page carries the embed snippet, the coordination server
// serves executable-looking JavaScript containing measurement IDs, and the
// collection server accepts the query-string submissions the generated
// JavaScript would issue (Appendix A). The "browser" here is a plain Go HTTP
// client plus a regular expression standing in for JavaScript execution.
func TestWireFormatEndToEnd(t *testing.T) {
	g := geo.NewRegistry(1)

	// Task set with one image candidate per §7.2 domain.
	ts := pipeline.NewTaskSet()
	for _, d := range []string{"youtube.com", "twitter.com", "facebook.com"} {
		ts.Add(pipeline.Candidate{
			PatternKey: "domain:" + d,
			Type:       core.TaskImage,
			TargetURL:  "http://" + d + "/favicon.ico",
			Strict:     true,
		})
	}
	index := results.NewTaskIndex()
	store := results.NewStore()

	collector := collectserver.New(store, index, g)
	collectorSrv := httptest.NewServer(collector)
	defer collectorSrv.Close()

	coordinatorSrv := httptest.NewUnstartedServer(nil)
	snippet := core.SnippetOptions{CoordinatorURL: "http://" + coordinatorSrv.Listener.Addr().String(), CollectorURL: collectorSrv.URL}
	coordinator, err := coordserver.Open(coordserver.Config{Tasks: ts, Scheduler: scheduler.DefaultConfig(),
		Index: index, Geo: g, Snippet: snippet})
	if err != nil {
		t.Fatal(err)
	}
	coordinatorSrv.Config.Handler = coordinator
	coordinatorSrv.Start()
	defer coordinatorSrv.Close()

	origin := originserver.New("professor.example.edu", snippet)
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	// 1. The visitor loads the origin page and finds the embed snippet.
	page := fetchBody(t, originSrv.URL+"/", nil)
	if !strings.Contains(page, coordinatorSrv.URL+"/task.js") {
		t.Fatalf("origin page does not reference the coordinator:\n%s", page)
	}

	// 2. The browser fetches task.js cross-origin from the coordinator.
	pkIP, err := g.RandomIP("PK")
	if err != nil {
		t.Fatal(err)
	}
	headers := map[string]string{
		"User-Agent":      "Mozilla/5.0 (X11; Linux x86_64) Chrome/39.0 Safari/537.36",
		"X-Forwarded-For": pkIP.String(),
		"Referer":         originSrv.URL + "/",
	}
	js := fetchBody(t, coordinatorSrv.URL+"/task.js", headers)
	idRe := regexp.MustCompile(`M\.measurementId = "([^"]+)"`)
	matches := idRe.FindAllStringSubmatch(js, -1)
	if len(matches) == 0 {
		t.Fatalf("no measurement IDs in served task JS:\n%s", js)
	}
	if !strings.Contains(js, collectorSrv.URL) {
		t.Fatal("task JS does not point at the collection server")
	}

	// 3. The task runs in the browser; we emulate its submissions exactly as
	//    the generated JavaScript constructs them: an init record followed
	//    by a failure record (youtube.com is unreachable from Pakistan).
	for _, m := range matches {
		id := m[1]
		if _, ok := index.Lookup(id); !ok {
			t.Fatalf("measurement ID %q not registered with the task index", id)
		}
		for _, state := range []core.State{core.StateInit, core.StateFailure} {
			url := collectserver.SubmitURL(collectorSrv.URL, id, state, 1234)
			fetchBody(t, url, headers)
		}
	}

	// 4. The collection server stored geolocated, attributed measurements.
	if store.Len() != len(matches) {
		t.Fatalf("store has %d measurements, want %d", store.Len(), len(matches))
	}
	for _, m := range store.All() {
		if m.Region != "PK" {
			t.Fatalf("measurement not geolocated to PK: %+v", m)
		}
		if m.Browser != core.BrowserChrome {
			t.Fatalf("browser not parsed from User-Agent: %+v", m)
		}
		if m.State != core.StateFailure {
			t.Fatalf("terminal state not recorded: %+v", m)
		}
		if !strings.HasPrefix(m.PatternKey, "domain:") {
			t.Fatalf("submission not attributed to its pattern: %+v", m)
		}
	}
}

func fetchBody(t *testing.T, url string, headers map[string]string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestConcurrentIngestSoak runs a short measurement campaign with many
// concurrent client streams submitting into one collection server — the §5.5
// deployment shape — and then audits the store for every invariant
// concurrency could have violated. Run under -race (scripts/ci.sh does) this
// is the ingest path's soak test.
func TestConcurrentIngestSoak(t *testing.T) {
	stack := clientsim.BuildStack(clientsim.StackConfig{Seed: 271, Censor: censor.PaperPolicies()})
	const workers = 8
	visits := 400
	if testing.Short() {
		visits = 120
	}
	res := stack.Population.RunCampaignConcurrent(clientsim.CampaignConfig{
		Visits:   visits,
		Start:    time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Duration: 24 * time.Hour,
	}, workers)

	if res.Visits != visits {
		t.Fatalf("campaign ran %d visits, want %d", res.Visits, visits)
	}
	if res.TasksSubmitted == 0 {
		t.Fatal("no submissions survived the concurrent campaign")
	}

	// Store invariants after concurrent ingest: consistent counters, no
	// duplicate IDs, every record attributed and geolocated, terminal states
	// retrievable.
	all := stack.Store.All()
	if len(all) != stack.Store.Len() {
		t.Fatalf("All()=%d records but Len()=%d", len(all), stack.Store.Len())
	}
	seen := make(map[string]bool, len(all))
	for _, m := range all {
		if seen[m.MeasurementID] {
			t.Fatalf("duplicate measurement ID %s", m.MeasurementID)
		}
		seen[m.MeasurementID] = true
		if m.PatternKey == "" {
			t.Fatalf("unattributed measurement: %+v", m)
		}
		if _, ok := stack.TaskIndex.Lookup(m.MeasurementID); !ok {
			t.Fatalf("stored measurement %s has no registered task", m.MeasurementID)
		}
		got, ok := stack.Store.Get(m.MeasurementID)
		if !ok || got.MeasurementID != m.MeasurementID {
			t.Fatalf("Get(%s) lost a stored measurement", m.MeasurementID)
		}
	}
	stats := stack.Store.Stats()
	if stats.Measurements != len(all) {
		t.Fatalf("Stats().Measurements=%d, want %d", stats.Measurements, len(all))
	}
	// The concurrently-collected store must still be analyzable: detection
	// runs and aggregation conserves counts (Aggregate excludes controls).
	nonControl := 0
	for _, m := range all {
		if !m.Control {
			nonControl++
		}
	}
	total := 0
	for _, g := range results.Aggregate(all) {
		if g.Successes+g.Failures+g.InitOnly != g.Total {
			t.Fatalf("aggregation tallies inconsistent: %+v", g)
		}
		total += g.Total
	}
	if total != nonControl {
		t.Fatalf("aggregation conserved %d measurements, want %d", total, nonControl)
	}
	detector := inference.New(inference.DefaultConfig())
	_ = detector.DetectIncremental(stack.Aggregator)
}

// TestLongitudinalOnsetEndToEnd changes the censor's policy halfway through a
// simulated campaign (Turkey blocking twitter.com, as happened in March 2014)
// and checks that windowed detection localizes the onset, demonstrating the
// longitudinal capability the paper motivates in §1.
func TestLongitudinalOnsetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("longitudinal campaign is slow")
	}
	eng := censor.NewEngine() // starts with no filtering anywhere
	stack := clientsim.BuildStack(clientsim.StackConfig{Seed: 314, Censor: eng})

	start := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	regions := []geo.CountryCode{"TR", "TR", "US", "DE", "GB"}

	// Phase 1: two unfiltered weeks.
	stack.Population.RunCampaign(clientsim.CampaignConfig{
		Visits:   1200,
		Start:    start,
		Duration: 14 * 24 * time.Hour,
		Regions:  regions,
	})
	// Phase 2: Turkey orders twitter.com blocked; two more weeks.
	tr := &censor.Policy{Region: "TR"}
	tr.AddDomain("twitter.com", censor.MechanismDNSRedirect, "court order, March 2014")
	eng.SetPolicy(tr)
	stack.Population.RunCampaign(clientsim.CampaignConfig{
		Visits:   1200,
		Start:    start.Add(14 * 24 * time.Hour),
		Duration: 14 * 24 * time.Hour,
		Regions:  regions,
	})

	// Weekly windows on a grid starting at the campaign's first day.
	const week = 7 * 24 * time.Hour
	agg := results.NewAggregator(results.AggregatorConfig{Window: week, Epoch: start})
	agg.Backfill(stack.Store)
	detector := inference.New(inference.DefaultConfig())
	windows := detector.DetectWindows(agg, week)
	if len(windows) < 4 {
		t.Fatalf("expected at least 4 weekly windows, got %d", len(windows))
	}
	transitions := inference.Transitions(windows, inference.DefaultConfig().MinMeasurements)
	var onset *inference.Transition
	for i := range transitions {
		if transitions[i].PatternKey == "domain:twitter.com" && transitions[i].Region == "TR" && transitions[i].FilteredNow {
			onset = &transitions[i]
		}
	}
	if onset == nil {
		t.Fatalf("no onset transition detected; transitions=%+v\n%s",
			transitions, inference.TimelineReport(windows, 5))
	}
	// The onset should be localized to the week the block started (± one
	// window of slack for sparse cells).
	blockStart := start.Add(14 * 24 * time.Hour)
	if onset.At.Before(blockStart.Add(-7*24*time.Hour)) || onset.At.After(blockStart.Add(14*24*time.Hour)) {
		t.Fatalf("onset localized to %v, expected near %v", onset.At, blockStart)
	}
	// twitter.com must not be flagged in TR during the first two weeks.
	firstWeeks := inference.FilteredSet(windows[0].Verdicts)
	if firstWeeks["domain:twitter.com|TR"] {
		t.Fatal("twitter.com flagged in TR before the block began")
	}
}

// TestKillAndRestartRecovery is the durability acceptance test: a deployment
// ingests a concurrent campaign with the WAL attached, the process "dies"
// (the in-memory store and aggregation tier are discarded; under SyncAlways
// nothing needs a clean close), and a restarted collector recovers via
// OpenStoreFromWAL + Aggregator.Backfill. The
// recovered store must match the pre-crash store bit-for-bit, and incremental
// detection over the backfilled aggregation tier must reproduce the verdicts
// the pre-crash live aggregation tier gave exactly.
func TestKillAndRestartRecovery(t *testing.T) {
	walDir := t.TempDir()
	stack := clientsim.BuildStack(clientsim.StackConfig{
		Seed:   272,
		Censor: censor.PaperPolicies(),
		// SyncAlways: every committed record is durable the moment the store
		// acknowledges it, so the simulated kill below needs no shutdown
		// cooperation from the WAL at all.
		WAL: &results.WALConfig{Dir: walDir, Policy: results.SyncAlways},
	})
	visits := 300
	if testing.Short() {
		visits = 100
	}
	stack.Population.RunCampaignConcurrent(clientsim.CampaignConfig{
		Visits:   visits,
		Start:    time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Duration: 24 * time.Hour,
	}, 8)

	// Every submission committed before its client call returned, so the
	// pre-crash reference state is simply what the store holds.
	if stack.Store.Len() == 0 {
		t.Fatal("campaign stored nothing")
	}

	var preSnapshot strings.Builder
	if err := stack.Store.WriteJSONL(&preSnapshot); err != nil {
		t.Fatal(err)
	}
	preVerdicts := inference.New(inference.DefaultConfig()).DetectIncremental(stack.Aggregator)

	// Kill: drop every in-memory tier without closing the WAL. (The open
	// segment files leak until the test process exits, exactly like a real
	// crash.)
	stack.Store, stack.Aggregator = nil, nil

	// Restart: replay the log, cold-start the analysis tier, detect.
	recovered, stats, err := results.OpenStoreFromWAL(walDir)
	if err != nil {
		t.Fatalf("OpenStoreFromWAL: %v", err)
	}
	if stats.TornSegments != 0 {
		t.Fatalf("SyncAlways WAL recovered %d torn segments", stats.TornSegments)
	}
	agg := results.NewAggregator(results.AggregatorConfig{})
	if folded := agg.Backfill(recovered); folded != recovered.Len() {
		t.Fatalf("backfilled %d of %d recovered measurements", folded, recovered.Len())
	}

	var postSnapshot strings.Builder
	if err := recovered.WriteJSONL(&postSnapshot); err != nil {
		t.Fatal(err)
	}
	if preSnapshot.String() != postSnapshot.String() {
		t.Fatal("recovered store snapshot differs from the pre-crash store")
	}

	postVerdicts := inference.New(inference.DefaultConfig()).DetectIncremental(agg)
	if len(postVerdicts) != len(preVerdicts) {
		t.Fatalf("recovered detection produced %d verdicts, pre-crash detection produced %d",
			len(postVerdicts), len(preVerdicts))
	}
	for i := range preVerdicts {
		if preVerdicts[i] != postVerdicts[i] {
			t.Fatalf("verdict %d diverged after recovery:\n pre: %+v\npost: %+v",
				i, preVerdicts[i], postVerdicts[i])
		}
	}
}
