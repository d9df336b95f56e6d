package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/api/federation"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/inference"
	"encore/internal/results"
	"encore/internal/wire"
)

var (
	testStart   = time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	testRegions = []geo.CountryCode{"CN", "PK", "US", "DE"}
)

func open(t *testing.T, cfg Config) *Node {
	t.Helper()
	cfg.Index, cfg.Geo = results.NewTaskIndex(), geo.NewRegistry(1)
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// measurement is record i in state: one pattern per three IDs, failing in CN.
func measurement(i int, state core.State) results.Measurement {
	region := testRegions[i%len(testRegions)]
	if state != core.StateInit && region == "CN" {
		state = core.StateFailure
	}
	return results.Measurement{
		MeasurementID: fmt.Sprintf("m-%05d", i),
		PatternKey:    fmt.Sprintf("domain:site%d.example", i%3),
		TargetURL:     fmt.Sprintf("http://site%d.example/favicon.ico", i%3),
		TaskType:      core.TaskImage,
		State:         state,
		ClientIP:      fmt.Sprintf("203.0.113.%d", i%200),
		Region:        region,
		Browser:       core.BrowserChrome,
		Received:      testStart.Add(time.Duration(i) * time.Second),
	}
}

// commit adds IDs [from, to) as inits and upgrades every other one, so the
// log holds upgrades as well as inserts; it returns the commits made.
func commit(t *testing.T, n *Node, from, to int) int {
	t.Helper()
	commits := 0
	for i := from; i < to; i++ {
		if err := n.Server.Store.Add(measurement(i, core.StateInit)); err != nil {
			t.Fatal(err)
		}
		commits++
		if i%2 == 0 {
			if err := n.Server.Store.Add(measurement(i, core.StateSuccess)); err != nil {
				t.Fatal(err)
			}
			commits++
		}
	}
	return commits
}

func wireBytes(t *testing.T, s *results.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteWire(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReopenResumesStore: a node opened on a directory a closed node left
// behind resumes its store bit for bit, with a backfilled aggregator, and
// continues the commit stream instead of reissuing its positions.
func TestReopenResumesStore(t *testing.T) {
	wal := &results.WALConfig{Dir: t.TempDir()}
	first := open(t, Config{WAL: wal})
	commits := commit(t, first, 0, 300)
	want := wireBytes(t, first.Server.Store)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := open(t, Config{WAL: wal})
	if second.Recovered.Records != commits {
		t.Fatalf("recovered %d records, the first life committed %d", second.Recovered.Records, commits)
	}
	if got := wireBytes(t, second.Server.Store); !bytes.Equal(got, want) {
		t.Fatal("recovered store's WriteWire differs from the store that wrote the log")
	}
	det := inference.New(inference.Config{})
	full := det.DetectStore(second.Server.Store)
	if inc := det.DetectIncremental(second.Aggregator); len(full) == 0 || !reflect.DeepEqual(inc, full) {
		t.Fatalf("backfilled aggregator's verdicts %+v, store's %+v", inc, full)
	}
	commits += commit(t, second, 300, 400)
	for i := 1; i < 300; i += 2 { // upgrade first-life inits
		if err := second.Server.Store.Add(measurement(i, core.StateSuccess)); err != nil {
			t.Fatal(err)
		}
		commits++
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}

	logged, err := results.OpenWAL(*wal)
	if err != nil {
		t.Fatal(err)
	}
	defer logged.Close()
	seen := make(map[uint64]bool)
	err = logged.ReadRecordFrames(0, func(cseq uint64, _ []byte) error {
		if seen[cseq] {
			return fmt.Errorf("commit position %d appears twice in the log", cseq)
		}
		seen[cseq] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != commits {
		t.Fatalf("log holds %d positions, two lives committed %d", len(seen), commits)
	}
}

// TestServeShutdownOrder drives an edge through Serve while submitters are
// still running, then cancels it: every acknowledged beacon is in the edge's
// log, the forwarder's final drain shipped all of it (its cursor file is the
// last commit position), and the upstream holds the edge's records.
func TestServeShutdownOrder(t *testing.T) {
	up := open(t, Config{})
	up.Server.Guard = nil
	up.Server.AllowAttributed = true
	upSrv := httptest.NewServer(up.Server)
	defer upSrv.Close()

	dir := t.TempDir()
	edge := open(t, Config{
		WAL: &results.WALConfig{Dir: dir},
		// Nothing ships before shutdown: only Close's drain can deliver.
		Forward: &federation.ForwarderConfig{
			Client:        apiclient.New(upSrv.URL),
			MaxBatch:      1 << 20,
			FlushInterval: time.Hour,
		},
	})
	const ids = 4000
	for i := 0; i < ids; i++ {
		m := measurement(i, core.StateSuccess)
		edge.Server.Tasks.Register(core.Task{MeasurementID: m.MeasurementID, Type: m.TaskType, TargetURL: m.TargetURL, PatternKey: m.PatternKey})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- edge.Serve(ctx, ln, nil) }()

	var (
		next   atomic.Int64
		ackMu  sync.Mutex
		acked  []string
		submit sync.WaitGroup
	)
	client := &http.Client{Timeout: 10 * time.Second}
	for w := 0; w < 4; w++ {
		submit.Add(1)
		go func() {
			defer submit.Done()
			for i := int(next.Add(1)) - 1; i < ids; i = int(next.Add(1)) - 1 {
				id := measurement(i, core.StateSuccess).MeasurementID
				req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("http://%s/submit?cmh-id=%s&cmh-result=success", ln.Addr(), id), nil)
				req.Header.Set("X-Forwarded-For", fmt.Sprintf("10.0.%d.%d", i/250, i%250))
				resp, err := client.Do(req)
				if err != nil {
					return // the listener is gone
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ackMu.Lock()
					acked = append(acked, id)
					ackMu.Unlock()
				}
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ackMu.Lock()
		n := len(acked)
		ackMu.Unlock()
		if n >= 200 || time.Now().After(deadline) {
			break
		}
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	submit.Wait()
	if len(acked) < 200 {
		t.Fatalf("only %d beacons acknowledged", len(acked))
	}

	logged, stats, err := results.OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range acked {
		if _, ok := logged.Get(id); !ok {
			t.Fatalf("acknowledged %s is not in the log", id)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "forward-cursor.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cursor struct {
		Acked uint64 `json:"acked_commit_seq"`
	}
	if err := json.Unmarshal(data, &cursor); err != nil {
		t.Fatal(err)
	}
	if cursor.Acked != stats.MaxCommitSeq {
		t.Fatalf("cursor file holds %d, the last commit position is %d", cursor.Acked, stats.MaxCommitSeq)
	}
	if got, want := recordSet(t, up.Server.Store), recordSet(t, edge.Server.Store); !reflect.DeepEqual(got, want) {
		t.Fatalf("upstream holds %d records, edge %d, or their contents differ", len(got), len(want))
	}
}

// recordSet is a store's WriteWire records with the positions zeroed, which
// differ between an edge and its upstream.
func recordSet(t *testing.T, s *results.Store) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	fr := wire.NewFrameReader(bytes.NewReader(wireBytes(t, s)))
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		_, _, rec, err := wire.DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.AppendRecordFrame(nil, 0, 0, &rec)
		if err != nil {
			t.Fatal(err)
		}
		out[string(frame)] = true
	}
}

// TestCloseTwiceAndConfigErrors: Close is idempotent, a forwarder without a
// log is refused by name, and a WAL-less node starts nothing.
func TestCloseTwiceAndConfigErrors(t *testing.T) {
	n := open(t, Config{WAL: &results.WALConfig{Dir: t.TempDir()}})
	commit(t, n, 0, 10)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	_, err := Open(Config{
		Index:   results.NewTaskIndex(),
		Geo:     geo.NewRegistry(1),
		Forward: &federation.ForwarderConfig{Upstream: "http://127.0.0.1:1"},
	})
	if err == nil || !strings.Contains(err.Error(), "Forward") || !strings.Contains(err.Error(), "WAL") {
		t.Fatalf("Forward without WAL: err = %v, want one naming both", err)
	}

	before := runtime.NumGoroutine()
	mem := open(t, Config{})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("a WAL-less Open started %d goroutines", after-before)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
}
