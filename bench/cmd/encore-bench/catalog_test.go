package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"

	"encore/bench/internal/layers"
)

// BENCHMARK.json at the root of the repository is generated from the
// catalog (`encore-bench benchmark-json`); the two must not drift.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	onDisk, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate it with `go run ./cmd/encore-bench benchmark-json > ../BENCHMARK.json`")
	}
}

// The README's tables of metrics are the catalog's: every metric has its row,
// in the catalog's order, with its unit and (per-layer) the prediction of
// what it moves, which exists nowhere else in the program.
func TestReadmeTablesMatchCatalog(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var layer bytes.Buffer
	for _, m := range perLayer {
		fmt.Fprintf(&layer, "| `%s` | %s | %s |\n", m.Name, m.Unit, m.Moves)
	}
	if !bytes.Contains(readme, layer.Bytes()) {
		t.Errorf("the README's per-layer table differs from the catalog; it should read:\n%s", layer.Bytes())
	}
	rest := readme
	for _, m := range endToEnd {
		row := fmt.Sprintf("| `%s` | %s | %s | %.0f %% |", m.Name, m.Unit, m.Better, 100*m.Bound)
		i := bytes.Index(rest, []byte(row))
		if i < 0 {
			t.Fatalf("the README's end-to-end table has no row starting %q after the rows before it", row)
		}
		rest = rest[i:]
	}
}

// The contract's limits on the file, checked where a change would break them.
func TestCatalogMeetsTheContract(t *testing.T) {
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	raw := benchmarkJSON()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range doc.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	setup := false
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	for _, m := range doc.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range doc.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", doc.RunSeconds)
	}
	// Every metric the trace reports has a catalogue entry.
	for _, n := range layers.TraceNames {
		if !seen[n] {
			t.Errorf("trace metric %s is not in the catalog", n)
		}
	}
}
