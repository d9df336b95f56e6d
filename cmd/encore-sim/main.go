// Command encore-sim runs a complete Encore deployment end to end in one
// process: it generates the synthetic Web, installs the paper's censorship
// policies (§7.2), runs the task-generation pipeline, simulates a measurement
// campaign of origin-page visits from around the world, applies the filtering
// detection algorithm, and prints the resulting report. It optionally writes
// the raw measurements to a JSON-lines file for encore-analyze.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"encore/internal/censor"
	"encore/internal/clientsim"
	"encore/internal/inference"
	"encore/internal/loadgen"
	"encore/internal/results"
	"encore/internal/targets"
)

func main() {
	var (
		visits  = flag.Int("visits", 5000, "number of origin-page visits to simulate")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		outPath = flag.String("out", "", "optional path to write measurements (JSON lines)")
		list    = flag.String("targets", "study", "target list: 'study' (YouTube/Twitter/Facebook) or 'herdict' (full high-value list, low-sensitivity entries only)")

		loadgenMode      = flag.Bool("loadgen", false, "drive the campaign with concurrent clients and report ingest throughput")
		loadgenClients   = flag.Int("loadgen-clients", 8, "concurrent client streams in -loadgen mode")
		loadgenTransport = flag.String("loadgen-transport", "", "submission transport in -loadgen mode: '' (in-process), 'beacon' (v1 GET over loopback HTTP), 'v2' (JSON POST over loopback HTTP), or 'v2bin' (binary application/x-encore-records POST over loopback HTTP)")

		walDir  = flag.String("wal-dir", "", "attach a durable write-ahead log to the simulated collector (for WAL-on vs WAL-off throughput comparisons)")
		walSync = flag.String("wal-sync", "interval", "WAL fsync policy: always, interval, or none")

		chaosMode     = flag.Bool("chaos", false, "run the deterministic chaos suite (seeded by -seed) instead of a campaign, and exit nonzero on any invariant violation")
		chaosScenario = flag.String("chaos-scenario", "", "run a single named chaos scenario (seeded by -seed) instead of a campaign; see -chaos-list")
		chaosList     = flag.Bool("chaos-list", false, "list the chaos scenario registry and exit")
	)
	flag.Parse()

	if *chaosList {
		for _, sc := range loadgen.ChaosScenarios() {
			fmt.Printf("%-22s [%s]\n", sc.Name, sc.Surface)
		}
		return
	}
	if *chaosScenario != "" {
		runChaosScenario(*chaosScenario, *seed)
		return
	}
	if *chaosMode {
		runChaos(*seed)
		return
	}

	var walCfg *results.WALConfig
	if *walDir != "" {
		policy, err := results.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		walCfg = &results.WALConfig{Dir: *walDir, Policy: policy}
	}

	var targetList *targets.List
	switch *list {
	case "study":
		targetList = targets.MeasurementStudyList()
	case "herdict":
		targetList = targets.HerdictHighValue().FilterSensitivity(targets.SensitivityLow)
	default:
		log.Fatalf("unknown target list %q", *list)
	}

	fmt.Printf("building deployment (seed=%d, %d target patterns)...\n", *seed, targetList.Len())
	stack := clientsim.BuildStack(clientsim.StackConfig{
		Seed:    *seed,
		Censor:  censor.PaperPolicies(),
		Targets: targetList,
		WAL:     walCfg,
	})
	defer func() {
		if err := stack.Close(); err != nil {
			log.Printf("closing stack: %v", err)
		}
	}()
	fmt.Printf("pipeline: %s\n", stack.Report.Summary())
	fmt.Printf("censorship ground truth:\n%s\n", stack.Censor.Summary())

	campaignStart := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	campaignSpan := 7 * 30 * 24 * time.Hour // seven months, as in §7
	if *loadgenMode {
		clients := *loadgenClients
		if clients < 1 {
			clients = 1
		}
		transport := loadgen.Transport(*loadgenTransport)
		switch transport {
		case loadgen.TransportInProcess, loadgen.TransportBeacon, loadgen.TransportV2, loadgen.TransportV2Binary:
		default:
			log.Fatalf("unknown -loadgen-transport %q", *loadgenTransport)
		}
		res := loadgen.Run(stack, loadgen.Config{
			Clients:           clients,
			Visits:            *visits,
			Start:             campaignStart,
			SimulatedDuration: campaignSpan,
			Transport:         transport,
		})
		fmt.Println(res)
	} else {
		start := time.Now()
		campaign := stack.Population.RunCampaign(clientsim.CampaignConfig{
			Visits:   *visits,
			Start:    campaignStart,
			Duration: campaignSpan,
		})
		fmt.Printf("campaign finished in %v: %s\n", time.Since(start).Round(time.Millisecond), campaign)
	}

	stats := stack.Store.Stats()
	fmt.Printf("collected %d measurements from %d distinct IPs in %d countries\n",
		stats.Measurements, stats.DistinctClients, stats.Countries)
	for _, country := range stats.TopCountries(8) {
		fmt.Printf("  %s: %d measurements\n", country, stats.ByCountry[country])
	}

	// Scheduling-side view of the same campaign: the per-region coverage
	// shards the assignment tier balanced on.
	coverage := stack.Scheduler.CoverageSnapshot()
	maxSpread := 0
	for _, rc := range coverage {
		if spread := rc.Max - rc.Min; spread > maxSpread {
			maxSpread = spread
		}
	}
	fmt.Printf("scheduler: %d tasks assigned, coverage balanced across %d regions (largest per-region spread %d)\n",
		stack.Scheduler.TotalAssignments(), len(coverage), maxSpread)

	// Detection reads the incremental aggregation tier the collector
	// maintained during ingest (O(groups)).
	detector := inference.New(inference.DefaultConfig())
	incStart := time.Now()
	verdicts := detector.DetectIncremental(stack.Aggregator)
	fmt.Printf("\ndetection: incremental over %d groups in %v\n",
		len(verdicts), time.Since(incStart).Round(time.Microsecond))
	fmt.Println()
	fmt.Print(inference.Report(verdicts))
	fmt.Print(inference.ConfoundReport(inference.CheckConfounds(stack.Aggregator.Groups(), verdicts)))

	conf := inference.Score(verdicts, stack.GroundTruth(), inference.DefaultConfig().MinMeasurements)
	fmt.Printf("\nscoring against ground truth: TP=%d FP=%d FN=%d TN=%d precision=%.2f recall=%.2f\n",
		conf.TruePositives, conf.FalsePositives, conf.FalseNegatives, conf.TrueNegatives,
		conf.Precision(), conf.Recall())

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatalf("creating output: %v", err)
		}
		defer f.Close()
		if err := stack.Store.WriteJSONL(f); err != nil {
			log.Fatalf("writing measurements: %v", err)
		}
		fmt.Printf("wrote %d measurements to %s\n", stack.Store.Len(), *outPath)
	}
}

// runChaos executes the full chaos scenario registry with the given seed
// and prints one pass/fail line per scenario. Any failure exits 1; its
// message carries the seed that replays it.
func runChaos(seed uint64) {
	fmt.Printf("chaos suite: %d scenarios, seed %d\n", len(loadgen.ChaosScenarios()), seed)
	start := time.Now()
	failed := 0
	for _, res := range loadgen.RunChaos(seed, nil) {
		if res.Err != nil {
			failed++
			fmt.Printf("  FAIL %-22s [%s] %v\n", res.Name, res.Surface, res.Err)
		} else {
			fmt.Printf("  ok   %-22s [%s]\n", res.Name, res.Surface)
		}
	}
	fmt.Printf("chaos suite finished in %v\n", time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		fmt.Printf("%d scenario(s) failed; replay with: encore-sim -chaos -seed %d\n", failed, seed)
		os.Exit(1)
	}
}

// runChaosScenario executes one named scenario from the registry with the
// given seed, printing its verdict; an invariant violation (or an unknown
// name) exits 1.
func runChaosScenario(name string, seed uint64) {
	start := time.Now()
	res := loadgen.RunChaosScenario(name, seed, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if res.Err != nil {
		fmt.Printf("FAIL %-22s [%s] after %v: %v\n", res.Name, res.Surface, time.Since(start).Round(time.Millisecond), res.Err)
		os.Exit(1)
	}
	fmt.Printf("ok   %-22s [%s] in %v\n", res.Name, res.Surface, time.Since(start).Round(time.Millisecond))
}
