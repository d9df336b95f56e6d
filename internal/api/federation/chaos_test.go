package federation

// Chaos coverage for the forwarder's loss-accounting machinery: the ack
// tracker under adversarial acknowledgement orders (the gap pathology), the
// dead-letter ring under per-index rejection floods, and batch-level 4xx
// storms injected at the transport — which must re-queue, never
// dead-letter, never drop.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"encore/internal/api"
	apiclient "encore/internal/api/client"
	"encore/internal/core"
	"encore/internal/faultinject"
)

// permute returns a seeded Fisher-Yates shuffle of 1..n.
func permute(n int, seed uint64) []uint64 {
	rng := faultinject.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestAckTrackerAdversarialPermutations feeds the tracker every prefix of
// several shuffled ack orders and checks the cursor is always exactly the
// longest contiguous acknowledged prefix — never ahead (that would claim
// durability for unsent records), never behind once the gap closes.
func TestAckTrackerAdversarialPermutations(t *testing.T) {
	const n = 64
	for seed := uint64(1); seed <= 5; seed++ {
		order := permute(n, seed)
		tr := newAckTracker(0)
		acked := make(map[uint64]bool)
		for _, cseq := range order {
			tr.ack(cseq)
			acked[cseq] = true
			want := uint64(0)
			for acked[want+1] {
				want++
			}
			if got := tr.cursor(); got != want {
				t.Fatalf("seed %d: after ack(%d) cursor = %d, want contiguous prefix %d", seed, cseq, got, want)
			}
			if !tr.acked(cseq) {
				t.Fatalf("seed %d: position %d not reported acked", seed, cseq)
			}
		}
		if tr.cursor() != n {
			t.Fatalf("seed %d: full permutation ended at cursor %d, want %d", seed, tr.cursor(), n)
		}
		if len(tr.above) != 0 {
			t.Fatalf("seed %d: %d stale positions held above a complete prefix", seed, len(tr.above))
		}
	}
}

// TestAckTrackerDuplicateAcks checks re-acknowledging a position (upstream
// merged a re-sent batch idempotently) neither advances the cursor twice
// nor disturbs the gap set.
func TestAckTrackerDuplicateAcks(t *testing.T) {
	tr := newAckTracker(0)
	if !tr.ack(1) {
		t.Fatal("first ack(1) did not advance")
	}
	if tr.ack(1) {
		t.Fatal("duplicate ack(1) advanced the cursor again")
	}
	tr.ack(3)
	if tr.ack(3) {
		t.Fatal("duplicate ack of a gapped position reported an advance")
	}
	if tr.cursor() != 1 {
		t.Fatalf("cursor = %d, want 1 (position 2 still missing)", tr.cursor())
	}
	if !tr.ack(2) {
		t.Fatal("filling the gap did not advance")
	}
	if tr.cursor() != 3 {
		t.Fatalf("cursor = %d, want 3 after the gap closed", tr.cursor())
	}
}

// TestAckTrackerNeverSentPosition checks an ack for a position far beyond
// anything sent (a corrupt or forged acknowledgement) is parked in the gap
// set without advancing the cursor — and does not wedge later legitimate
// progress.
func TestAckTrackerNeverSentPosition(t *testing.T) {
	tr := newAckTracker(5)
	if tr.ack(1000) {
		t.Fatal("ack for a never-sent position advanced the cursor")
	}
	if tr.cursor() != 5 {
		t.Fatalf("cursor = %d, want unchanged 5", tr.cursor())
	}
	for cseq := uint64(6); cseq <= 20; cseq++ {
		tr.ack(cseq)
	}
	if tr.cursor() != 20 {
		t.Fatalf("cursor = %d, want 20: the phantom position must not block real progress", tr.cursor())
	}
	if !tr.acked(1000) {
		t.Fatal("phantom position lost from the gap set (a real ack for it would re-advance wrongly)")
	}
	if tr.acked(21) {
		t.Fatal("unacked position 21 reported acked")
	}
}

// rejectingUpstream accepts every batch at the HTTP level but rejects every
// record per-index with a typed code — the app-level flood that exercises
// the dead-letter ring.
func rejectingUpstream(t *testing.T, code string) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	var seen atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, err := decodeFrames(r.Body)
		if err != nil {
			t.Errorf("decoding forwarded batch: %v", err)
		}
		resp := api.BatchSubmitResponse{}
		for i, m := range ms {
			seen.Add(1)
			resp.Rejected = append(resp.Rejected, api.RejectedSubmission{
				Index: i, MeasurementID: m.MeasurementID, Code: code, Message: "rejected by test upstream",
			})
		}
		api.WriteJSON(w, http.StatusOK, resp)
	}))
	t.Cleanup(srv.Close)
	return srv, &seen
}

// TestDeadLetterRingOverflowAccounting floods the forwarder with per-index
// rejections far past DeadLetterLimit: the ring must stay bounded, keep the
// most recent casualties, and the Rejected/RejectedByCode counters must
// account for every record — including the ones the ring evicted.
func TestDeadLetterRingOverflowAccounting(t *testing.T) {
	const total, limit = 30, 8
	upSrv, seen := rejectingUpstream(t, string(api.CodeInvalidSubmission))

	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{
		Client: apiclient.NewWithConfig(upSrv.URL, apiclient.Config{
			Retries: 1, RetryBackoff: time.Millisecond, GzipThreshold: -1,
		}),
		MaxBatch:        7, // does not divide total: rings wrap mid-batch
		FlushInterval:   time.Hour,
		DeadLetterLimit: limit,
		WAL:             wal,
	})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)
	for i := 0; i < total; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if got := seen.Load(); got != total {
		t.Fatalf("upstream saw %d records, want %d", got, total)
	}
	st := f.Stats()
	if st.Rejected != total {
		t.Fatalf("Rejected = %d, want %d (evicted dead letters must stay counted)", st.Rejected, total)
	}
	if st.RejectedByCode[string(api.CodeInvalidSubmission)] != total {
		t.Fatalf("RejectedByCode = %v, want %d under %q", st.RejectedByCode, total, api.CodeInvalidSubmission)
	}
	if st.Dropped != 0 || st.Forwarded != 0 {
		t.Fatalf("stats %+v: a fully rejected stream must drop nothing and forward nothing", st)
	}
	ring := f.DeadLetters()
	if len(ring) != limit {
		t.Fatalf("dead-letter ring holds %d, want bounded at %d", len(ring), limit)
	}
	for i, dl := range ring {
		wantID := fmt.Sprintf("edge-%d", total-limit+i)
		if dl.Measurement.MeasurementID != wantID {
			t.Fatalf("ring[%d] = %q, want most-recent window entry %q", i, dl.Measurement.MeasurementID, wantID)
		}
		if dl.Code != string(api.CodeInvalidSubmission) {
			t.Fatalf("ring[%d] code = %q", i, dl.Code)
		}
	}
}

// TestForwarderRidesOut4xxBatchStorm injects transport-level 4xx storms in
// front of a real upstream: batch-level failures must re-queue the whole
// batch (never dead-letter it), and once the storm passes everything
// delivers — zero drops, zero rejections.
func TestForwarderRidesOut4xxBatchStorm(t *testing.T) {
	upStore, _, upSrv := upstream(t)

	rt := faultinject.NewRoundTripper(nil, faultinject.NetFaults{Seed: 7})
	edge, wal := walEdge(t)
	f, err := NewForwarder(ForwarderConfig{
		Client: apiclient.NewWithConfig(upSrv.URL, apiclient.Config{
			HTTPClient:   &http.Client{Transport: rt, Timeout: 30 * time.Second},
			Retries:      2,
			RetryBackoff: time.Millisecond,
		}),
		MaxBatch:      8,
		FlushInterval: time.Hour,
		WAL:           wal,
	})
	if err != nil {
		t.Fatal(err)
	}
	edge.AddObserver(f)

	const n = 40
	for i := 0; i < n; i++ {
		if err := edge.Add(edgeMeasurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			// Storm arrives mid-stream: every send is answered 400 until
			// the counter drains (the consecutive-fault cap punctures it).
			rt.FailNext(6, http.StatusBadRequest, "")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := f.Flush(context.Background())
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flush never converged after the 4xx storm: %v", err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st := f.Stats()
	if got := rt.Stats().StormResponses; got != 6 {
		t.Fatalf("storm responses = %d, want 6", got)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d records across a transient 4xx storm", st.Dropped)
	}
	if st.Rejected != 0 || f.DeadLetterCount() != 0 {
		t.Fatalf("batch-level 4xx must re-queue, not dead-letter: rejected %d, ring %d", st.Rejected, f.DeadLetterCount())
	}
	if upStore.Len() != n {
		t.Fatalf("upstream has %d records after the storm, want %d", upStore.Len(), n)
	}
	if st.Forwarded != n {
		t.Fatalf("Forwarded = %d, want %d", st.Forwarded, n)
	}
}
