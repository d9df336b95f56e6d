package collectserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"encore/internal/api"
	"encore/internal/core"
	"encore/internal/results"
	"encore/internal/wire"
)

// TestWALSeesBothWritePaths checks that a WAL attached with AttachWAL records
// every commit from both commit calls — Accept's one-record Store.Add and the
// batch sink's Store.AddBatch — and that the recovered store matches the live
// one bit-for-bit after Server.Close has synced.
func TestWALSeesBothWritePaths(t *testing.T) {
	dir := t.TempDir()
	s, store, index, _ := testServer(t)
	s.Guard = nil
	wal, err := results.OpenWAL(results.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(wal)

	// One-record path.
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("one-%d", i)
		registerTask(index, id, false)
		if err := s.Accept(core.Submission{MeasurementID: id, State: core.StateSuccess, ClientIP: "9.0.0.1"}); err != nil {
			t.Fatal(err)
		}
	}

	// Batch path, including init → terminal upgrades inside one commit.
	var req api.BatchSubmitRequest
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("batch-%d", i)
		registerTask(index, id, false)
		req.Submissions = append(req.Submissions,
			api.SubmitRequest{MeasurementID: id, Result: string(core.StateInit)},
			api.SubmitRequest{MeasurementID: id, Result: string(core.StateFailure)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := http.Post(srv.URL+api.V2SubmissionsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if out := decodeBatchResponse(t, resp); out.Accepted != 80 || len(out.Rejected) != 0 {
		t.Fatalf("batch: %+v", out)
	}

	// Close syncs the WAL — the clean-shutdown half of the crash-consistency
	// contract.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 60 {
		t.Fatalf("store holds %d measurements, want 60", store.Len())
	}

	recovered, stats, err := results.OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Len() != store.Len() {
		t.Fatalf("recovered %d measurements, want %d", recovered.Len(), store.Len())
	}
	// 20 one-record inserts + 40 batch inserts + 40 batch upgrades.
	if stats.Records != 100 {
		t.Fatalf("WAL replayed %d records, want 100", stats.Records)
	}
	var live, replayed bytes.Buffer
	if err := store.WriteJSONL(&live); err != nil {
		t.Fatal(err)
	}
	if err := recovered.WriteJSONL(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatal("recovered snapshot differs from live store")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseIdempotent checks Close can be called repeatedly and without
// optional tiers attached.
func TestServerCloseIdempotent(t *testing.T) {
	s, _, _, _ := testServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAckMeansLogged pins the write path's durability ordering on every lane:
// with a WAL attached, each accepted record is already in the log when the
// 200 (or the beacon GIF) reaches the client — there is no acknowledged-but-
// unlogged window for a crash to fall into.
func TestAckMeansLogged(t *testing.T) {
	const n = 5
	lanes := []struct {
		name string
		post func(t *testing.T, url string, ids []string)
	}{
		{"beacon", func(t *testing.T, url string, ids []string) {
			for _, id := range ids {
				resp, err := http.Get(SubmitURL(url, id, core.StateSuccess, 12))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("beacon %s: status %d", id, resp.StatusCode)
				}
			}
		}},
		{"json", func(t *testing.T, url string, ids []string) {
			var req api.BatchSubmitRequest
			for _, id := range ids {
				req.Submissions = append(req.Submissions, api.SubmitRequest{MeasurementID: id, Result: "success"})
			}
			body, _ := json.Marshal(req)
			resp, err := http.Post(url+api.V2SubmissionsPath, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if out := decodeBatchResponse(t, resp); out.Accepted != len(ids) {
				t.Fatalf("json batch: %+v", out)
			}
		}},
		{"binary", func(t *testing.T, url string, ids []string) {
			var frames []byte
			for _, id := range ids {
				frames = wire.AppendSubmissionFrame(frames, &wire.Submission{MeasurementID: id, Result: "success"})
			}
			if out := decodeBatchResponse(t, postRecords(t, url, frames, "")); out.Accepted != len(ids) {
				t.Fatalf("binary batch: %+v", out)
			}
		}},
	}
	for _, lane := range lanes {
		t.Run(lane.name, func(t *testing.T) {
			s, _, index, _ := testServer(t)
			// SyncNone: nothing but the commit itself may put records in the log.
			wal, err := results.OpenWAL(results.WALConfig{Dir: t.TempDir(), Policy: results.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer wal.Close()
			s.AttachWAL(wal)
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("%s-%d", lane.name, i)
				registerTask(index, ids[i], false)
			}
			srv := httptest.NewServer(s)
			defer srv.Close()

			lane.post(t, srv.URL, ids)
			if got := wal.Stats().Records; got != n {
				t.Fatalf("WAL holds %d records when the acknowledgement arrived, want %d", got, n)
			}
		})
	}
}
