package encore

// Cross-lane equivalence: the property test that keeps the three submission
// surfaces — in-process Accept, v2 JSON batches, and v2 binary
// application/x-encore-records batches — semantically identical. One
// randomized submission stream is driven through each lane into its own
// collector. The two wire lanes must produce bit-identical WriteJSONL
// snapshots (both commit whole batches, whose insertion order is
// deterministic), and every lane must agree on admission counts, on the code
// each refused member gets, on snapshot content, and on incremental-detection
// verdicts. Phase two replays the same
// stream with concurrent batches per lane (run under -race), where insertion
// order is nondeterministic but content must still agree.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"encore/internal/api"
	apiclient "encore/internal/api/client"
	"encore/internal/collectserver"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/results"
)

// crossLaneArrival is the fixed server clock: every lane's collector answers
// s.Now() with this instant, so arrival-time clamping is identical.
var crossLaneArrival = time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC)

// crossLaneBatch is one batch with its transport identity.
type crossLaneBatch struct {
	ip      string
	ua      string
	referer string // full Referer URL, as a browser would send
	subs    []api.SubmitRequest
}

const (
	crossLaneBatches = 24
	crossLanePerShot = 32
	// crossLaneTasks must cover every distinct ID the stream can mint: at
	// most one fresh ID per slot per batch (upgrades reuse their base's ID).
	crossLaneTasks = crossLaneBatches * crossLanePerShot
)

// crossLaneStream generates the deterministic randomized stream. Every
// measurement ID belongs to exactly one batch, so concurrent batch delivery
// cannot race two writes to one record; within a batch, same-ID submissions
// (init→terminal upgrades, and terminal states followed by the other one,
// which every lane must refuse as conflicting) keep their order on every
// lane. Origins are pre-normalized (lower-case bare domains) and
// timestamps are millisecond-precision instants inside the campaign window,
// so the JSON and binary encodings carry exactly the same values.
func crossLaneStream(seed int64) []crossLaneBatch {
	rng := rand.New(rand.NewSource(seed))
	uas := []string{
		"Mozilla/5.0 (X11; Linux x86_64) Chrome/39.0 Safari/537.36",
		"Mozilla/5.0 (Windows NT 6.1; rv:31.0) Gecko/20100101 Firefox/31.0",
		"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_9) AppleWebKit/537.78 Safari/537.78",
	}
	ips := []string{"101.4.7.20", "59.0.3.14", "188.0.2.2", "11.0.3.7", "203.0.113.9"}
	states := []core.State{core.StateSuccess, core.StateFailure, core.StateInit}

	var batches []crossLaneBatch
	task := 0
	for b := 0; b < crossLaneBatches; b++ {
		batch := crossLaneBatch{
			ip:      ips[rng.Intn(len(ips))],
			ua:      uas[rng.Intn(len(uas))],
			referer: fmt.Sprintf("http://origin-%d.example.org/page", rng.Intn(6)),
		}
		for len(batch.subs) < crossLanePerShot {
			id := fmt.Sprintf("xl-%d", task)
			task++
			ms := crossLaneArrival.Add(-time.Duration(1+rng.Intn(90*24*3600)) * time.Second).
				Add(time.Duration(rng.Intn(1000)) * time.Millisecond).UnixMilli()
			sub := api.SubmitRequest{
				MeasurementID:      id,
				Result:             string(states[rng.Intn(len(states))]),
				ElapsedMillis:      float64(rng.Intn(400000)) / 4,
				ReceivedUnixMillis: ms,
			}
			switch rng.Intn(4) {
			case 0:
				sub.OriginSite = fmt.Sprintf("site-%d.example.net", rng.Intn(8))
			case 1:
				// Empty origin: the batch's Referer domain must stand in.
			case 2:
				sub.OriginSite = fmt.Sprintf("http://deep-%d.example.com/a/b", rng.Intn(8))
			case 3:
				sub.ReceivedUnixMillis = 0 // no client clock: arrival stamps it
			}
			batch.subs = append(batch.subs, sub)
			// Sometimes follow an init with its terminal upgrade, and a
			// terminal with a conflicting retraction, inside the same batch.
			if sub.Result == string(core.StateInit) && rng.Intn(2) == 0 && len(batch.subs) < crossLanePerShot {
				up := sub
				up.Result = string(core.StateSuccess)
				if sub.ReceivedUnixMillis > 0 {
					// A plausible client clock: 1.5s after the init. The base
					// can sit within a second of the arrival instant, so this
					// sometimes lands in the future — deliberately, to cover
					// the arrival clamp on every lane.
					up.ReceivedUnixMillis = sub.ReceivedUnixMillis + 1500
				}
				batch.subs = append(batch.subs, up)
			}
			last := batch.subs[len(batch.subs)-1]
			if last.Result != string(core.StateInit) && rng.Intn(3) == 0 && len(batch.subs) < crossLanePerShot {
				other := last
				other.Result = string(core.StateFailure)
				if last.Result == string(core.StateFailure) {
					other.Result = string(core.StateSuccess)
				}
				other.ElapsedMillis = float64(rng.Intn(400000)) / 4
				batch.subs = append(batch.subs, other)
			}
		}
		// A few poisoned members per stream: unknown IDs and invalid states
		// must be rejected at the same indices on every wire lane.
		if b%5 == 0 {
			batch.subs[rng.Intn(len(batch.subs))].MeasurementID = fmt.Sprintf("ghost-%d", b)
		}
		if b%7 == 0 {
			batch.subs[rng.Intn(len(batch.subs))].Result = "no-such-state"
		}
		batches = append(batches, batch)
	}
	return batches
}

// crossLaneCollector builds one lane's isolated stack: store, aggregator,
// registered tasks, and a collector with a pinned clock and no rate guard
// (guard state is shared across a lane's batches, so admission would depend
// on delivery order — exactly the nondeterminism phase two permits).
func crossLaneCollector(t *testing.T) (*collectserver.Server, *results.Store, *results.Aggregator) {
	t.Helper()
	store := results.NewStore()
	agg := results.NewAggregator(results.AggregatorConfig{})
	store.AddObserver(agg)
	index := results.NewTaskIndex()
	for i := 0; i < crossLaneTasks; i++ {
		index.Register(core.Task{
			MeasurementID: fmt.Sprintf("xl-%d", i),
			Type:          core.TaskImage,
			TargetURL:     fmt.Sprintf("http://target-%d.com/favicon.ico", i%12),
			PatternKey:    fmt.Sprintf("domain:target-%d.com", i%12),
			Control:       i%12 == 0,
		})
	}
	srv := collectserver.New(store, index, geo.NewRegistry(1))
	srv.Guard = nil
	srv.Now = func() time.Time { return crossLaneArrival }
	return srv, store, agg
}

// deliverInProcess replays one batch through the programmatic Accept path,
// applying the same normalization the v2 batch handler applies (origins are
// pre-normalized by construction, so normalization reduces to the Referer
// fallback and the timestamp clamp). It returns how many members were
// accepted and the code of each refused one, by index, as the batch handler
// would report them.
func deliverInProcess(t *testing.T, srv *collectserver.Server, b crossLaneBatch) (accepted int, refused []api.RejectedSubmission) {
	t.Helper()
	refererDomain := strings.TrimSuffix(strings.TrimPrefix(b.referer, "http://"), "/page")
	for i, sub := range b.subs {
		origin := sub.OriginSite
		if strings.HasPrefix(origin, "http://") {
			origin = strings.TrimSuffix(strings.TrimPrefix(origin, "http://"), "/a/b")
		}
		if origin == "" {
			origin = refererDomain
		}
		received := crossLaneArrival
		if sub.ReceivedUnixMillis > 0 {
			// Same clamp as prepareRawSubmission: client clocks are honoured
			// only up to the arrival instant; nothing lands in the future.
			if c := time.UnixMilli(sub.ReceivedUnixMillis).UTC(); c.Before(received) {
				received = c
			}
		}
		err := srv.Accept(core.Submission{
			MeasurementID:  sub.MeasurementID,
			State:          core.State(sub.Result),
			DurationMillis: sub.ElapsedMillis,
			ClientIP:       b.ip,
			UserAgent:      b.ua,
			OriginSite:     origin,
			Received:       received,
		})
		if err != nil {
			code := api.CodeInvalidSubmission
			switch {
			case errors.Is(err, results.ErrConflictingData):
				code = api.CodeConflictingResult
			case errors.Is(err, collectserver.ErrUnknownMeasurement):
				code = api.CodeUnknownMeasurement
			}
			refused = append(refused, api.RejectedSubmission{Index: i, Code: code})
			continue
		}
		accepted++
	}
	return accepted, refused
}

// laneResult is what one lane produced from the full stream.
type laneResult struct {
	name     string
	jsonl    []byte
	verdicts []inference.Verdict
	accepted int
	rejected int
	codes    []string // "batch/index code" per refused member, sorted
}

// refusals appends batch b's refused members to codes.
func refusals(codes []string, b int, refused []api.RejectedSubmission) []string {
	for _, r := range refused {
		codes = append(codes, fmt.Sprintf("%02d/%02d %s", b, r.Index, r.Code))
	}
	return codes
}

func snapshotLane(t *testing.T, name string, store *results.Store, agg *results.Aggregator, accepted int, codes []string) laneResult {
	t.Helper()
	var buf bytes.Buffer
	if err := store.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	verdicts := inference.New(inference.DefaultConfig()).DetectIncremental(agg)
	sort.Strings(codes)
	return laneResult{name: name, jsonl: buf.Bytes(), verdicts: verdicts, accepted: accepted, rejected: len(codes), codes: codes}
}

// runWireLane drives the stream through a loopback HTTP collector with the
// SDK, sequentially or with concurrent batch deliveries.
func runWireLane(t *testing.T, name string, binary, concurrent bool, stream []crossLaneBatch) laneResult {
	t.Helper()
	srv, store, agg := crossLaneCollector(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := apiclient.NewWithConfig(ts.URL, apiclient.Config{BinaryEncoding: binary})
	ctx := context.Background()

	var mu sync.Mutex
	var accepted int
	var codes []string
	deliver := func(i int, b crossLaneBatch) {
		resp, err := client.SubmitBatch(ctx, b.subs, &apiclient.ClientMeta{
			IP: b.ip, UserAgent: b.ua, Referer: b.referer,
		})
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		accepted += resp.Accepted
		codes = refusals(codes, i, resp.Rejected)
		mu.Unlock()
	}
	if concurrent {
		var wg sync.WaitGroup
		for i, b := range stream {
			wg.Add(1)
			go func() { defer wg.Done(); deliver(i, b) }()
		}
		wg.Wait()
	} else {
		for i, b := range stream {
			deliver(i, b)
		}
	}
	return snapshotLane(t, name, store, agg, accepted, codes)
}

func runInProcessLane(t *testing.T, stream []crossLaneBatch) laneResult {
	t.Helper()
	srv, store, agg := crossLaneCollector(t)
	var accepted int
	var codes []string
	for i, b := range stream {
		a, refused := deliverInProcess(t, srv, b)
		accepted += a
		codes = refusals(codes, i, refused)
	}
	return snapshotLane(t, "in-process", store, agg, accepted, codes)
}

// TestCrossLaneEquivalenceSequential: same stream, sequential delivery. The
// two wire lanes must be BIT-identical — both commit through AddBatch, whose
// shard-ordered insertion sequence is deterministic, so a single byte of
// divergence means the binary codec dropped or distorted a field the JSON
// lane carried. The in-process lane commits record-at-a-time in input order,
// which interleaves insertion sequences differently; against it the wire
// lanes must agree on admission counts, on the full snapshot CONTENT
// (order-independent), and on the inference verdicts.
func TestCrossLaneEquivalenceSequential(t *testing.T) {
	stream := crossLaneStream(411)
	base := runInProcessLane(t, stream)
	jsonLane := runWireLane(t, "v2-json", false, false, stream)
	binLane := runWireLane(t, "v2-binary", true, false, stream)
	if base.rejected == 0 || base.accepted == 0 || !slices.ContainsFunc(base.codes, isConflict) {
		t.Fatalf("degenerate stream: accepted=%d rejected=%d, codes %v", base.accepted, base.rejected, base.codes)
	}
	if !bytes.Equal(binLane.jsonl, jsonLane.jsonl) {
		t.Errorf("v2-binary WriteJSONL snapshot is not bit-identical to v2-json:\n%s",
			firstDiffLine(binLane.jsonl, jsonLane.jsonl))
	}
	baseLines := sortedLines(base.jsonl)
	for _, lane := range []laneResult{jsonLane, binLane} {
		if lane.accepted != base.accepted || lane.rejected != base.rejected {
			t.Errorf("%s admission (%d accepted, %d rejected) != %s (%d, %d)",
				lane.name, lane.accepted, lane.rejected, base.name, base.accepted, base.rejected)
		}
		if !slices.Equal(lane.codes, base.codes) {
			t.Errorf("%s refusal codes diverge from %s:\n%s", lane.name, base.name, firstDiffSorted(lane.codes, base.codes))
		}
		if got := sortedLines(lane.jsonl); !reflect.DeepEqual(got, baseLines) {
			t.Errorf("%s snapshot content diverges from %s:\n%s",
				lane.name, base.name, firstDiffSorted(got, baseLines))
		}
		if !reflect.DeepEqual(lane.verdicts, base.verdicts) {
			t.Errorf("%s DetectIncremental verdicts diverge from %s:\n got %+v\nwant %+v",
				lane.name, base.name, lane.verdicts, base.verdicts)
		}
	}
}

// TestCrossLaneEquivalenceConcurrent: the same stream with every batch
// delivered concurrently per wire lane (exercised under -race: the streaming
// binary decode, chunked commits, and sharded store all run in parallel).
// Insertion order is nondeterministic, so equality is over sorted snapshot
// lines; the verdicts, computed from order-independent group counters, must
// still match exactly.
func TestCrossLaneEquivalenceConcurrent(t *testing.T) {
	stream := crossLaneStream(412)
	base := runInProcessLane(t, stream)
	if !slices.ContainsFunc(base.codes, isConflict) {
		t.Fatalf("degenerate stream: no member refused as conflicting, codes %v", base.codes)
	}
	lanes := []laneResult{
		runWireLane(t, "v2-json", false, true, stream),
		runWireLane(t, "v2-binary", true, true, stream),
	}
	baseLines := sortedLines(base.jsonl)
	for _, lane := range lanes {
		if lane.accepted != base.accepted || lane.rejected != base.rejected {
			t.Errorf("%s admission (%d accepted, %d rejected) != in-process (%d, %d)",
				lane.name, lane.accepted, lane.rejected, base.accepted, base.rejected)
		}
		if !slices.Equal(lane.codes, base.codes) {
			t.Errorf("%s concurrent refusal codes diverge from in-process:\n%s", lane.name, firstDiffSorted(lane.codes, base.codes))
		}
		if got := sortedLines(lane.jsonl); !reflect.DeepEqual(got, baseLines) {
			t.Errorf("%s concurrent snapshot content diverges from in-process:\n%s",
				lane.name, firstDiffSorted(got, baseLines))
		}
		if !reflect.DeepEqual(lane.verdicts, base.verdicts) {
			t.Errorf("%s concurrent verdicts diverge from in-process", lane.name)
		}
	}
}

// isConflict reports whether a refusal entry carries conflicting_result.
func isConflict(code string) bool { return strings.HasSuffix(code, " "+api.CodeConflictingResult) }

func sortedLines(b []byte) []string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

func firstDiffSorted(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("sorted line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(got), len(want))
}

func firstDiffLine(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(g), len(w))
}
