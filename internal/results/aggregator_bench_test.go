package results

import (
	"fmt"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
)

// aggBenchCells is how many pattern×region cells the aggregator benchmarks
// spread their measurements over: 200 patterns from 10 regions.
const aggBenchCells = 2000

// aggBenchWeek is the aggregator benchmarks' window size.
const aggBenchWeek = 7 * 24 * time.Hour

// newAggBench returns an aggregator with weekly windows and the workload
// that filled it: 32,000 measurements, each an init record and the terminal
// upgrade that replaces it, spread round-robin over aggBenchCells cells,
// every browser family and task type, both terminal states, and 16 weekly
// windows. Every cell and bucket the workload touches already exists.
func newAggBench() (agg *Aggregator, inits, terminals []Measurement) {
	const n = aggBenchCells * 16
	regions := []geo.CountryCode{"US", "CN", "IR", "PK", "DE", "GB", "IN", "BR", "RU", "TR"}
	epoch := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	inits = make([]Measurement, n)
	terminals = make([]Measurement, n)
	for i := range inits {
		cell := i % aggBenchCells
		m := Measurement{
			MeasurementID: fmt.Sprintf("m-%08d", i),
			PatternKey:    fmt.Sprintf("domain:site%03d.com", cell/len(regions)),
			Region:        regions[cell%len(regions)],
			TaskType:      core.TaskTypes()[i%4],
			Browser:       core.BrowserFamilies()[i%5],
			State:         core.StateInit,
			Received:      epoch.Add(time.Duration(i/aggBenchCells%16)*aggBenchWeek + time.Hour),
		}
		inits[i] = m
		m.State = core.StateSuccess
		if i%3 == 0 {
			m.State = core.StateFailure
		}
		m.Received = m.Received.Add(time.Minute)
		terminals[i] = m
	}
	agg = NewAggregator(AggregatorConfig{Window: aggBenchWeek})
	for i := range inits {
		agg.Commit(nil, inits[i])
		agg.Commit(&inits[i], terminals[i])
	}
	return agg, inits, terminals
}

// BenchmarkAggregatorCommit measures what one measurement costs the
// aggregator: its init commit and then the terminal upgrade that retracts
// it, into 2,000 cells with weekly windows whose buckets already exist: the
// steady state of a running collector.
func BenchmarkAggregatorCommit(b *testing.B) {
	agg, inits, terminals := newAggBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(inits)
		agg.Commit(nil, inits[j])
		agg.Commit(&inits[j], terminals[j])
	}
}

// BenchmarkAggregatorGroups measures one analysis read of the aggregate:
// Groups and Windowed over 2,000 cells in 16 weekly windows, the two views
// detection reads on every pass.
func BenchmarkAggregatorGroups(b *testing.B) {
	agg, _, _ := newAggBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(agg.Groups()) != aggBenchCells || len(agg.Windowed(aggBenchWeek)) != 16 {
			b.Fatal("aggregate lost cells or windows")
		}
	}
}
