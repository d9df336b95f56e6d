// Command encore-analyze runs the filtering detection algorithm (§7.2) over
// measurements produced by encore-collector or encore-sim — a JSON-lines
// export (-in), a collector's write-ahead log directory (-wal),
// which it replays exactly as a restarted collector would, or a live
// collector's measurement export (-url), streamed over the v2 API — and
// prints the filtering report.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/inference"
	"encore/internal/results"
	"encore/internal/stats"
)

func main() {
	var (
		inPath    = flag.String("in", "measurements.jsonl", "measurement file (JSON lines)")
		walPath   = flag.String("wal", "", "recover measurements from a collector WAL directory instead of -in")
		urlBase   = flag.String("url", "", "stream measurements from a running collector's GET /v2/measurements export instead of -in")
		p         = flag.Float64("p", 0.7, "null-hypothesis per-measurement success probability")
		alpha     = flag.Float64("alpha", 0.05, "significance level")
		minMeas   = flag.Int("min-measurements", 5, "minimum completed measurements per region before it can be flagged")
		verbose   = flag.Bool("v", false, "also print per-cell statistics for unflagged cells")
		tuned     = flag.Bool("tuned", false, "tune the null probability per country from observed baselines (§7.2 enhancement)")
		confounds = flag.Bool("confounds", true, "warn when a detection's failures concentrate in one browser or task type")
		window    = flag.Duration("window", time.Duration(0), "if set (e.g. 168h), additionally run windowed detection and report filtering onset/lift transitions")
	)
	flag.Parse()

	var store *results.Store
	if *urlBase != "" {
		store = results.NewStore()
		client := apiclient.New(*urlBase)
		loaded := 0
		err := client.Measurements(context.Background(), func(m results.Measurement) error {
			loaded++
			return store.Add(m)
		})
		if err != nil {
			log.Fatalf("streaming measurements from %s: %v", *urlBase, err)
		}
		fmt.Printf("streamed %d measurements from %s\n", loaded, *urlBase)
	} else if *walPath != "" {
		recovered, stats, err := results.OpenStoreFromWAL(*walPath)
		if err != nil {
			log.Fatalf("recovering store from WAL: %v", err)
		}
		fmt.Printf("recovered %d measurements from %d WAL segments (%d torn tails dropped)\n",
			recovered.Len(), stats.Segments, stats.TornSegments)
		store = recovered
	} else {
		f, err := os.Open(*inPath)
		if err != nil {
			log.Fatalf("opening measurements: %v", err)
		}
		store = results.NewStore()
		err = store.ReadJSONL(f)
		f.Close()
		if err != nil {
			log.Fatalf("reading measurements: %v", err)
		}
	}

	// Cold start for the incremental analysis tier: fold the loaded store
	// into an aggregator with one parallel pass (per store shard); every
	// detection below reads its group counters.
	agg := results.NewAggregator(results.AggregatorConfig{Window: *window})
	backfillStart := time.Now()
	backfilled := agg.Backfill(store)
	fmt.Printf("backfilled %d stored measurements into %d non-control groups in %v\n",
		backfilled, agg.GroupCount(), time.Since(backfillStart).Round(time.Millisecond))

	campaign := store.Stats()
	fmt.Printf("loaded %d measurements from %d distinct clients in %d countries\n",
		campaign.Measurements, campaign.DistinctClients, campaign.Countries)
	for _, country := range campaign.TopCountries(10) {
		fmt.Printf("  %s: %d measurements\n", country, campaign.ByCountry[country])
	}

	cfg := inference.Config{
		Test:            stats.BinomialTest{P: *p, Alpha: *alpha},
		MinMeasurements: *minMeas,
	}
	detector := inference.New(cfg)
	var verdicts []inference.Verdict
	if *tuned {
		groups := agg.Groups()
		verdicts = inference.NewTuned(cfg, groups, 0.9).Detect(groups)
	} else {
		verdicts = detector.DetectIncremental(agg)
	}
	fmt.Println()
	fmt.Print(inference.Report(verdicts))

	if *confounds {
		warnings := inference.CheckConfounds(agg.Groups(), verdicts)
		fmt.Println()
		fmt.Print(inference.ConfoundReport(warnings))
	}

	if *window > 0 {
		fmt.Printf("\nwindowed detection (%v windows, grid anchored at the Unix epoch):\n", *window)
		windows := detector.DetectWindows(agg, *window)
		fmt.Print(inference.TimelineReport(windows, *minMeas))
	}

	if *verbose {
		fmt.Println("\nper-cell detail:")
		for _, v := range verdicts {
			fmt.Printf("  %-40s %-4s %4d/%4d success (p=%.4f) filtered=%v\n",
				v.PatternKey, v.Region, v.Successes, v.Completed, v.PValue, v.Filtered)
		}
	}
}
