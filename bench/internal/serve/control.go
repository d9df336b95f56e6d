package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"

	"encore/internal/results"
)

// Control-port routes. None is called inside a timed window except
// ProgressPath, which fed_drain polls to see the drain finish, and StatsPath
// at a window's two edges.
const (
	RegisterPath = "/bench/register"
	StatsPath    = "/bench/stats"
	ProgressPath = "/bench/progress"
	VerdictsPath = "/bench/verdicts"
)

// Stats is the body of GET /bench/stats: the child's runtime counters and
// the lifetime counters of every tier it runs.
type Stats struct {
	Progress
	Mem       MemStats           `json:"mem"`
	WAL       *results.WALStats  `json:"wal,omitempty"`
	Forwarder *ForwarderCounters `json:"forwarder,omitempty"`
}

// MemStats is the part of runtime.MemStats the benchmark reads.
type MemStats struct {
	Mallocs      uint64 `json:"mallocs"`
	TotalAlloc   uint64 `json:"total_alloc"`
	HeapAlloc    uint64 `json:"heap_alloc"`
	HeapSys      uint64 `json:"heap_sys"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
	NumGC        uint32 `json:"num_gc"`
	// GCCPUSeconds is the CPU time the collector has used and CPUSeconds all
	// the CPU time the process has used, both since it started and both the
	// runtime's own estimates (runtime/metrics), so that their differences
	// over a window divide into the collector's share of that window.
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
	CPUSeconds   float64 `json:"cpu_seconds"`
}

// ForwarderCounters is federation.ForwarderStats without its error value.
type ForwarderCounters struct {
	Forwarded   uint64 `json:"forwarded"`
	Rejected    uint64 `json:"rejected"`
	Dropped     uint64 `json:"dropped"`
	Spilled     uint64 `json:"spilled"`
	Batches     uint64 `json:"batches"`
	DeadLetters int    `json:"dead_letters"`
}

// Progress is the body of GET /bench/progress: what the harness polls while
// it waits for a drain. It reads counters only (no runtime statistics, no
// directory listing), so polling it costs the program under test next to
// nothing.
type Progress struct {
	EdgeLen     int `json:"edge_len"`
	UpstreamLen int `json:"upstream_len"`
	// Observed is how many commits the forwarder has seen, Acked the highest
	// commit position the upstream has acknowledged without a gap. Commit
	// positions are dense from one, so the two are equal exactly when
	// everything committed has been delivered.
	Observed uint64 `json:"observed"`
	Acked    uint64 `json:"acked"`
}

// Verdict is one cell of GET /bench/verdicts.
type Verdict struct {
	Pattern   string `json:"pattern"`
	Region    string `json:"region"`
	Completed int    `json:"completed"`
	Successes int    `json:"successes"`
	Filtered  bool   `json:"filtered"`
}

// Progress reads the drain counters.
func (st *Stack) Progress() Progress {
	p := Progress{EdgeLen: st.Edge.Store.Len()}
	if st.Upstream != nil {
		p.UpstreamLen = st.Upstream.Store.Len()
	}
	if st.Forwarder != nil {
		fs := st.Forwarder.Stats()
		p.Observed, p.Acked = fs.Observed, fs.AckedCursor
	}
	return p
}

// Stats reads every counter; gc forces a collection first so HeapAlloc is
// the live heap.
func (st *Stack) Stats(gc bool) Stats {
	if gc {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(cpu)
	s := Stats{
		Progress: st.Progress(),
		Mem: MemStats{
			Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc, HeapAlloc: ms.HeapAlloc,
			HeapSys: ms.HeapSys, PauseTotalNs: ms.PauseTotalNs, NumGC: ms.NumGC,
			GCCPUSeconds: cpu[0].Value.Float64(),
			CPUSeconds:   cpu[1].Value.Float64() - cpu[2].Value.Float64(),
		},
	}
	if st.WAL != nil {
		ws := st.WAL.Stats()
		s.WAL = &ws
	}
	if st.Forwarder != nil {
		fs := st.Forwarder.Stats()
		s.Forwarder = &ForwarderCounters{
			Forwarded: fs.Forwarded, Rejected: fs.Rejected, Dropped: fs.Dropped,
			Spilled: fs.Spilled, Batches: fs.Batches,
			DeadLetters: st.Forwarder.DeadLetterCount(),
		}
	}
	return s
}

// Verdicts runs the incremental detector over the final tier's aggregator.
func (st *Stack) Verdicts() []Verdict {
	vs := st.Detector.DetectIncremental(st.finalAggregator())
	out := make([]Verdict, len(vs))
	for i, v := range vs {
		out[i] = Verdict{
			Pattern: v.PatternKey, Region: string(v.Region),
			Completed: v.Completed, Successes: v.Successes, Filtered: v.Filtered,
		}
	}
	return out
}

// ControlHandler serves the control port.
func (st *Stack) ControlHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+RegisterPath, func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n, err := st.Register(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]int{"registered": n})
	})
	mux.HandleFunc("GET "+StatsPath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, st.Stats(r.URL.Query().Get("gc") == "1"))
	})
	mux.HandleFunc("GET "+ProgressPath, func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, st.Progress())
	})
	mux.HandleFunc("GET "+VerdictsPath, func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, st.Verdicts())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// The control client reads to EOF; a failed write shows there.
	_ = json.NewEncoder(w).Encode(v)
}
