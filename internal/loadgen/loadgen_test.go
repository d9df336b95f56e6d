package loadgen

import (
	"strings"
	"testing"
	"time"

	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/results"
)

// TestRunDrivesConcurrentClients runs a small concurrent load campaign through
// the full stack and checks the throughput accounting is consistent with what
// the store actually absorbed.
func TestRunDrivesConcurrentClients(t *testing.T) {
	stack := clientsim.BuildStack(clientsim.StackConfig{Seed: 9, Censor: censor.PaperPolicies()})
	cfg := Config{
		Clients:           4,
		Visits:            160,
		Start:             time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		SimulatedDuration: time.Hour,
	}
	res := Run(stack, cfg)

	if res.Visits != 160 {
		t.Fatalf("Visits=%d, want 160", res.Visits)
	}
	if res.TasksSubmitted == 0 {
		t.Fatal("no submissions made it through the stack")
	}
	if res.SubmissionsPerSec <= 0 {
		t.Fatalf("SubmissionsPerSec=%v", res.SubmissionsPerSec)
	}
	// Every submitted terminal result must be in the store (init records for
	// the same measurement upgrade in place rather than adding records).
	if res.Stored < res.TasksSubmitted {
		t.Fatalf("store has %d records, fewer than %d submissions", res.Stored, res.TasksSubmitted)
	}
	if res.Stored != stack.Store.Len() {
		t.Fatalf("Stored=%d disagrees with store Len=%d", res.Stored, stack.Store.Len())
	}
	if s := res.String(); !strings.Contains(s, "submissions/s") {
		t.Fatalf("report missing throughput: %s", s)
	}
	// The scheduler's coverage shards must have seen the run's regions.
	if res.CoverageRegions == 0 {
		t.Fatal("result reports no scheduler coverage regions")
	}
	if !strings.Contains(res.String(), "coverage over") {
		t.Fatalf("report missing coverage summary: %s", res)
	}
}

// TestRunSyncPath checks an uneven visit total is spread across the streams
// and run exactly, with every submission committed when Run returns.
func TestRunSyncPath(t *testing.T) {
	stack := clientsim.BuildStack(clientsim.StackConfig{Seed: 10})
	res := Run(stack, Config{Clients: 3, Visits: 41})
	if res.Visits != 41 {
		t.Fatalf("Visits=%d, want 41", res.Visits)
	}
	if res.Stored != stack.Store.Len() {
		t.Fatalf("Stored=%d disagrees with store Len=%d", res.Stored, stack.Store.Len())
	}
}

// TestRunHTTPTransports drives the same small campaign over both wire
// transports — v1 beacon GETs and v2 JSON POSTs through the client SDK
// against a real loopback listener — and checks the submissions land and
// the report names the path.
func TestRunHTTPTransports(t *testing.T) {
	for _, transport := range []Transport{TransportBeacon, TransportV2} {
		stack := clientsim.BuildStack(clientsim.StackConfig{Seed: 12, Censor: censor.PaperPolicies()})
		res := Run(stack, Config{
			Clients:           4,
			Visits:            80,
			Start:             time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
			SimulatedDuration: time.Hour,
			Transport:         transport,
		})
		if res.TasksSubmitted == 0 {
			t.Fatalf("%s: no submissions over HTTP", transport)
		}
		if res.Stored != stack.Store.Len() || res.Stored == 0 {
			t.Fatalf("%s: Stored=%d store=%d", transport, res.Stored, stack.Store.Len())
		}
		if !strings.Contains(res.String(), "http/"+string(transport)) {
			t.Fatalf("%s: report omits transport: %s", transport, res)
		}
		// The wire path must restore the in-process collector afterwards.
		if _, ok := stack.Population.Collector.(*clientsim.RemoteCollector); ok {
			t.Fatalf("%s: Run left the HTTP adapter installed", transport)
		}
	}
}

// TestRunWithWALAttached drives a load run against a stack persisting through
// the write-ahead log and checks the result reports the durability tier's
// counters and that the log holds the whole run.
func TestRunWithWALAttached(t *testing.T) {
	dir := t.TempDir()
	stack := clientsim.BuildStack(clientsim.StackConfig{
		Seed:   11,
		Censor: censor.PaperPolicies(),
		WAL:    &results.WALConfig{Dir: dir},
	})
	res := Run(stack, Config{
		Clients:           4,
		Visits:            120,
		Start:             time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		SimulatedDuration: time.Hour,
	})
	if !res.WALAttached {
		t.Fatal("result does not report the attached WAL")
	}
	if res.WAL.Records == 0 || res.WAL.Bytes == 0 {
		t.Fatalf("WAL counters empty: %+v", res.WAL)
	}
	if !strings.Contains(res.String(), "WAL") {
		t.Fatalf("String() omits WAL stats: %s", res)
	}
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := results.OpenStoreFromWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Len() != stack.Store.Len() {
		t.Fatalf("recovered %d measurements, want %d", recovered.Len(), stack.Store.Len())
	}
}
