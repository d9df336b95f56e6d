// Command encore-bench is the repository's end-to-end benchmark: one binary
// that is the load generator, the traced replay, the A/A checker and (as its
// own child process) the program under test.
//
//	encore-bench --workload W --seed N --seconds S --trace 0|1
//	    the driver's entry (bench/run.sh): one workload, one JSON line.
//	    --trace 0 prints every end-to-end metric, --trace 1 every per-layer one.
//	encore-bench run    runs the four workloads once each over loopback sockets
//	                    and prints every end-to-end metric with unit and samples
//	encore-bench trace  replays a workload's input in-process with spans, runs
//	                    the leaf ledger, prints every per-layer metric
//	encore-bench aa     runs the suite in sets on one build and prints each
//	                    metric's spread and set-to-set drift against its bound
//	encore-bench serve  the program under test (spawned by the others)
//
// See bench/README.md for every metric and workload.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"encore/bench/internal/gen"
	"encore/bench/internal/layers"
	"encore/bench/internal/load"
	"encore/bench/internal/serve"
	"encore/bench/internal/stat"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		os.Exit(serve.Main(args[1:], os.Stdout))
	case len(args) > 0 && args[0] == "run":
		err = cmdRun(ctx, args[1:])
	case len(args) > 0 && args[0] == "trace":
		err = cmdTrace(ctx, args[1:])
	case len(args) > 0 && args[0] == "aa":
		err = cmdAA(ctx, args[1:])
	case len(args) > 0 && args[0] == "benchmark-json":
		_, err = os.Stdout.Write(benchmarkJSON())
	case len(args) > 0 && strings.HasPrefix(args[0], "-"):
		err = cmdDriver(ctx, args)
	default:
		err = errors.New("usage: encore-bench run | trace | aa | serve | --workload W --seed N --seconds S --trace 0|1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "encore-bench:", err)
		os.Exit(1)
	}
}

// serveCommand re-executes this binary in the serve role.
func serveCommand(args []string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	return exec.Command(exe, append([]string{"serve"}, args...)...)
}

// runOne runs one workload over sockets.
func runOne(ctx context.Context, spec load.Spec, seed uint64, seconds float64, layerRun bool) (*load.Result, error) {
	opt := load.Options{Seed: seed, Seconds: seconds, Serve: serveCommand}
	if layerRun {
		// The per-layer run wants the socket run's counts, not its timings:
		// one set-up, and the lag probe on.
		opt.Setups, opt.ProbeLag = 1, true
	}
	res, err := load.Run(ctx, spec, opt)
	if err != nil {
		return nil, fmt.Errorf("%s, seed %d: %w", spec.Name, seed, err)
	}
	return res, nil
}

// layerRunSeconds is the length of the socket run the per-layer counts come
// from: a third of a timed run is enough for counts, and the replay and the
// ledger take the rest of the time.
const layerRunSeconds = RunSeconds / 3.0

// layerMetrics produces every per-layer metric of one workload: a short
// socket run for the counts only it can give, the traced replay, and the
// leaf ledger. A metric the workload does not define reads zero.
func layerMetrics(ctx context.Context, spec load.Spec, seed uint64, seconds float64, spansOut string) (map[string]float64, *load.Result, error) {
	res, err := runOne(ctx, spec, seed, seconds, true)
	if err != nil {
		return nil, nil, err
	}
	traced, err := layers.Trace(ctx, spec, seed, layers.ReplayRecords, os.TempDir(), spansOut)
	if err != nil {
		return nil, nil, err
	}
	ledger, err := layers.Ledger(ctx, seed, os.TempDir())
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v, ok := ledger[m.Name]
		if !ok {
			v, ok = traced[m.Name]
		}
		if !ok {
			v = res.Layer[m.Name]
		}
		out[m.Name] = v
	}
	for _, src := range []map[string]float64{ledger, traced, res.Layer} {
		for name := range src {
			if _, ok := out[name]; !ok {
				return nil, nil, fmt.Errorf("metric %s is measured but not in the catalog", name)
			}
		}
	}
	return out, res, nil
}

// failure describes why a run is not correct, naming the seed that replays
// it.
func failure(res *load.Result) error {
	if res.Correct() {
		return nil
	}
	return fmt.Errorf("workload %s failed its checks (replay with --seed %d): %d of %d operations failed; %s",
		res.Workload, res.Seed, res.Failed, res.Attempted, strings.Join(res.Failures, "; "))
}

// cmdDriver is the contract's entry: one workload, one JSON line last on
// standard output.
func cmdDriver(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("encore-bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", RunSeconds, "how long to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := load.SpecByName(*workload)
	if err != nil {
		return err
	}
	// The driver runs from the root of a checkout: the contract file it read
	// must be the one this build's catalog renders, or the names and bounds
	// it judges by are not the ones measured here.
	if onDisk, err := os.ReadFile("BENCHMARK.json"); err == nil && !bytes.Equal(onDisk, benchmarkJSON()) {
		return errors.New("BENCHMARK.json differs from the catalog; regenerate it with `cd bench && go run ./cmd/encore-bench benchmark-json > ../BENCHMARK.json`")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}

	var res *load.Result
	if *trace == 0 {
		if res, err = runOne(ctx, spec, *seed, *seconds, false); err != nil {
			return err
		}
		for _, m := range endToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !ok {
				return fmt.Errorf("workload %s did not report %s", spec.Name, m.Name)
			}
			line.Metrics[m.Name] = value{v, m.Unit}
		}
	} else {
		var vals map[string]float64
		if vals, res, err = layerMetrics(ctx, spec, *seed, max(*seconds/3, 1), ""); err != nil {
			return err
		}
		for _, m := range perLayer {
			line.Metrics[m.Name] = value{vals[m.Name], m.Unit}
		}
	}
	line.Correct, line.Attempted, line.Failed = res.Correct(), res.Attempted, res.Failed
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return failure(res)
}

// provenance is stamped on every result file.
type provenance struct {
	Time          string  `json:"time"`
	CPU           string  `json:"cpu"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs_generator"`
	SutGOMAXPROCS int     `json:"gomaxprocs_serve"`
	GoVersion     string  `json:"go_version"`
	Kernel        string  `json:"kernel"`
	Commit        string  `json:"git_commit"`
	Seed          uint64  `json:"seed"`
	InputHash     string  `json:"input_fingerprint"`
	RunSeconds    float64 `json:"run_seconds"`
	Network       string  `json:"network"`
	Disk          string  `json:"disk"`
}

func stamp(seed uint64, seconds float64, sutProcs int) provenance {
	p := provenance{
		Time: time.Now().UTC().Format(time.RFC3339), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		SutGOMAXPROCS: sutProcs, GoVersion: runtime.Version(), Seed: seed, InputHash: gen.Fingerprint(seed),
		RunSeconds: seconds, Network: "loopback", Disk: "sandbox disk (fsync figures are the sandbox's, not a device's)",
		CPU: "unknown", Kernel: "unknown", Commit: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(l, "model name"); ok {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(raw))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

// outDir is where result and span files go: bench/out beside this module's
// go.mod when run from inside the repository, ./out otherwise.
func outDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			dir = filepath.Join(d, "bench")
			break
		}
		if d == filepath.Dir(d) {
			break
		}
	}
	out := filepath.Join(dir, "out")
	return out, os.MkdirAll(out, 0o755)
}

// writeResult stores a result document under out/ and returns its path.
func writeResult(prefix string, doc any) (string, error) {
	dir, err := outDir()
	if err != nil {
		return "", err
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", prefix, time.Now().UTC().Format("20060102T150405Z")))
	return path, os.WriteFile(path, append(raw, '\n'), 0o644)
}

// selectSpecs resolves a comma-separated workload list; empty means all.
func selectSpecs(names string) ([]load.Spec, error) {
	if names == "" {
		return load.Specs, nil
	}
	var out []load.Spec
	for _, n := range strings.Split(names, ",") {
		s, err := load.SpecByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// cmdRun runs the workloads once each and prints every end-to-end metric by
// name with its unit and sample count.
func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", RunSeconds, "how long each workload measures for")
	names := fs.String("workloads", "", "comma-separated workloads (default: all four)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := selectSpecs(*names)
	if err != nil {
		return err
	}
	var results []*load.Result
	var failed []string
	for _, spec := range specs {
		res, err := runOne(ctx, spec, *seed, *seconds, false)
		if err != nil {
			return err
		}
		results = append(results, res)
		fmt.Printf("%s  (seed %d, %.0f s; %d attempted, %d failed; %d IDs)\n", spec.Name, *seed, *seconds, res.Attempted, res.Failed, res.Sizes["ids"])
		for _, m := range endToEnd {
			fmt.Printf("  %-24s %14.4f %-4s  n=%d\n", m.Name, res.EndToEnd[m.Name], m.Unit, res.Samples[m.Name])
		}
		if err := failure(res); err != nil {
			failed = append(failed, err.Error())
			fmt.Println("  INCORRECT:", err)
		}
	}
	sut := 0
	if len(results) > 0 {
		sut = results[0].SutGOMAXPROCS
	}
	path, err := writeResult("result", map[string]any{"provenance": stamp(*seed, *seconds, sut), "results": results})
	if err != nil {
		return err
	}
	fmt.Println("result file:", path)
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "\n"))
	}
	return nil
}

// cmdTrace prints every per-layer metric of the chosen workloads and writes
// each traced replay's spans to out/trace-<workload>.jsonl.
func cmdTrace(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "input seed")
	names := fs.String("workload", "", "comma-separated workloads (default: all four)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := selectSpecs(*names)
	if err != nil {
		return err
	}
	dir, err := outDir()
	if err != nil {
		return err
	}
	doc := map[string]any{}
	var failed []string
	sut := 0
	for _, spec := range specs {
		spans := filepath.Join(dir, "trace-"+spec.Name+".jsonl")
		vals, res, err := layerMetrics(ctx, spec, *seed, layerRunSeconds, spans)
		if err != nil {
			return err
		}
		sut = res.SutGOMAXPROCS
		doc[spec.Name] = vals
		fmt.Printf("%s  (seed %d, %d records replayed; spans: %s)\n", spec.Name, *seed, layers.ReplayRecords, spans)
		for _, m := range perLayer {
			fmt.Printf("  %-42s %16.4f %-5s\n", m.Name, vals[m.Name], m.Unit)
		}
		if err := failure(res); err != nil {
			failed = append(failed, err.Error())
			fmt.Println("  INCORRECT:", err)
		}
	}
	path, err := writeResult("layers", map[string]any{"provenance": stamp(*seed, layerRunSeconds, sut), "per_layer": doc})
	if err != nil {
		return err
	}
	fmt.Println("result file:", path)
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "\n"))
	}
	return nil
}

// aaSeeds is how many runs, each with another seed, make one set of the A/A
// check: as many as the driver's acceptance check makes.
const aaSeeds = 10

// cmdAA runs the end-to-end suite -sets times on one build, aaSeeds seeds
// each, as the driver's acceptance check does, and prints per (metric,
// workload) the spread of each set and the drift of the second set's median
// against the first, both next to the metric's bound. A run that fails a
// check, the validity conditions among them (no retries, the open loop's
// schedule kept, the closed loops' cores busy), fails the whole command.
func cmdAA(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("aa", flag.ContinueOnError)
	sets := fs.Int("sets", 2, "how many sets of runs")
	names := fs.String("workloads", "", "comma-separated workloads (default: all four)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := selectSpecs(*names)
	if err != nil {
		return err
	}
	type row struct {
		Workload string      `json:"workload"`
		Metric   string      `json:"metric"`
		Bound    float64     `json:"bound"`
		Medians  []float64   `json:"medians"`
		Spreads  []float64   `json:"spreads"`
		Drift    float64     `json:"drift"`
		Values   [][]float64 `json:"values"`
		OK       bool        `json:"within_bound"`
	}
	var rows []row
	sut := 0
	for _, spec := range specs {
		values := make(map[string][][]float64)
		for set := 0; set < *sets; set++ {
			for i := 0; i < aaSeeds; i++ {
				seed := uint64(1000*(set+1) + i)
				res, err := runOne(ctx, spec, seed, RunSeconds, false)
				if err != nil {
					return err
				}
				if err := failure(res); err != nil {
					return err
				}
				sut = res.SutGOMAXPROCS
				for _, m := range endToEnd {
					for len(values[m.Name]) <= set {
						values[m.Name] = append(values[m.Name], nil)
					}
					values[m.Name][set] = append(values[m.Name][set], res.EndToEnd[m.Name])
				}
				fmt.Fprintf(os.Stderr, "%s set %d seed %d done\n", spec.Name, set+1, seed)
			}
		}
		for _, m := range endToEnd {
			r := row{Workload: spec.Name, Metric: m.Name, Bound: m.Bound, Values: values[m.Name], OK: true}
			for _, vs := range values[m.Name] {
				r.Medians = append(r.Medians, stat.Median(vs))
				r.Spreads = append(r.Spreads, stat.Spread(vs))
			}
			if len(r.Medians) > 1 {
				// Drift is how much worse the last set's median is than the
				// first's, as a share of the first; negative is better.
				r.Drift = (r.Medians[len(r.Medians)-1] - r.Medians[0]) / r.Medians[0]
				if m.Better == "higher" {
					r.Drift = -r.Drift
				}
			}
			for _, s := range r.Spreads {
				if s > m.Bound {
					r.OK = false
				}
			}
			if r.Drift > m.Bound {
				r.OK = false
			}
			rows = append(rows, r)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Metric < rows[j].Metric })
	fmt.Printf("%-22s %-18s %8s %14s %10s %10s  %s\n", "metric", "workload", "bound", "median(set 1)", "spread", "drift", "")
	bad := 0
	for _, r := range rows {
		spread := 0.0
		for _, s := range r.Spreads {
			spread = max(spread, s)
		}
		verdict := "ok"
		switch {
		case !r.OK:
			verdict, bad = "OUTSIDE BOUND", bad+1
		case spread > r.Bound/3:
			verdict = "ok (spread above a third of the bound)"
		}
		fmt.Printf("%-22s %-18s %7.1f%% %14.4f %9.1f%% %+9.1f%%  %s\n", r.Metric, r.Workload, 100*r.Bound, r.Medians[0], 100*spread, 100*r.Drift, verdict)
	}
	path, err := writeResult("aa", map[string]any{"provenance": stamp(0, RunSeconds, sut), "sets": *sets, "seeds": aaSeeds, "rows": rows})
	if err != nil {
		return err
	}
	fmt.Println("result file:", path)
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs are outside their bound", bad)
	}
	return nil
}
