package load

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"time"

	apiclient "encore/internal/api/client"
	"encore/internal/geo"
	"encore/internal/results"

	"encore/bench/internal/gen"
	"encore/bench/internal/serve"
)

// MinCompleted is how many completed measurements a cell needs before its
// verdict is held against the ground truth. At twenty, a filtered cell
// (10 % success) and an open one (97 %) are on opposite sides of the paper's
// test with less than one chance in a million of crossing.
const MinCompleted = 20

// exportClient reads a collector's binary measurement export. It has no
// request timeout: a full-store export is long by design.
func exportClient(base string) *apiclient.Client {
	return apiclient.NewWithConfig(base, apiclient.Config{
		HTTPClient:     &http.Client{},
		BinaryEncoding: true,
	})
}

// digest summarises one export: how many records, how many not yet in a
// terminal state, a hash that depends on record order (snapshot order is
// part of what recovery must reproduce) and one that does not (an edge and
// its upstream hold the same set in different orders).
type digest struct {
	count    int
	pending  int
	ordered  uint64
	unsorted uint64
}

// add folds one exported record into the digest. Every stored field is
// hashed; the receive time as an instant, because its zone is spelt
// differently after a JSON hop than after a binary one.
func (d *digest) add(m *results.Measurement) {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ 0xff) * prime
	}
	num := func(v uint64) { h = (h ^ v) * prime }
	str(m.MeasurementID)
	str(m.PatternKey)
	str(m.TargetURL)
	str(string(m.State))
	str(m.ClientIP)
	str(string(m.Region))
	str(m.OriginSite)
	num(uint64(m.TaskType))
	num(uint64(m.Browser))
	num(math.Float64bits(m.DurationMillis))
	num(uint64(m.Received.UnixNano()))
	if m.Control {
		num(1)
	}
	d.count++
	if !m.Completed() {
		d.pending++
	}
	d.ordered = (d.ordered ^ h) * prime
	d.unsorted += h * 0x9e3779b97f4a7c15
}

// exportDigest streams base's binary export and digests it, and reports the
// rate of the pass in records per second.
func exportDigest(ctx context.Context, base string) (digest, float64, error) {
	var d digest
	start := time.Now()
	err := exportClient(base).Measurements(ctx, func(m results.Measurement) error {
		d.add(&m)
		return nil
	})
	return d, float64(d.count) / time.Since(start).Seconds(), err
}

// timeExport measures the export rate of base's whole store in records per
// second: the fastest of the digest pass already made (first) and up to four
// counting passes, stopping once the passes have taken a second in all. The
// fastest pass, not the median, because a pass is one long memory-bound read
// that a neighbour's burst can only slow, and a large store affords too few
// passes for a median to shed that.
func timeExport(ctx context.Context, base string, want int, first float64) (float64, int, error) {
	client := exportClient(base)
	rates := []float64{first}
	spent := time.Duration(float64(want) / first * float64(time.Second))
	for len(rates) < 5 && spent < time.Second {
		n := 0
		start := time.Now()
		if err := client.Measurements(ctx, func(results.Measurement) error { n++; return nil }); err != nil {
			return 0, 0, err
		}
		took := time.Since(start)
		if n != want {
			return 0, 0, fmt.Errorf("export returned %d records, want %d", n, want)
		}
		spent += took
		rates = append(rates, float64(n)/took.Seconds())
	}
	return slices.Max(rates), len(rates), nil
}

// mergeTallies sums per-worker tallies of what was submitted.
func mergeTallies(parts ...map[cell]*tally) map[cell]tally {
	out := make(map[cell]tally)
	for _, p := range parts {
		for k, t := range p {
			o := out[k]
			o.completed += t.completed
			o.successes += t.successes
			out[k] = o
		}
	}
	return out
}

// checkVerdicts holds the detector's output against the generator's record:
// every cell's completed and success counts must equal what was submitted,
// and every cell with at least MinCompleted completed measurements must be
// flagged exactly when the ground truth filters it. It returns the failures
// it found and how many verdicts disagreed with the truth.
func checkVerdicts(verdicts []serve.Verdict, sent map[cell]tally, truth *gen.Truth) (failures []string, wrong int) {
	seen := make(map[cell]bool, len(verdicts))
	for _, v := range verdicts {
		k := cell{v.Pattern, geo.CountryCode(v.Region)}
		seen[k] = true
		want := sent[k]
		if v.Completed != want.completed || v.Successes != want.successes {
			failures = append(failures, fmt.Sprintf("cell %s/%s: detector counted %d completed, %d successes; %d and %d were submitted",
				v.Pattern, v.Region, v.Completed, v.Successes, want.completed, want.successes))
		}
		if v.Completed >= MinCompleted && v.Filtered != truth.Filtered(v.Pattern, k.region) {
			wrong++
			failures = append(failures, fmt.Sprintf("cell %s/%s: verdict filtered=%t with %d/%d successes, ground truth says %t",
				v.Pattern, v.Region, v.Filtered, v.Successes, v.Completed, !v.Filtered))
		}
	}
	for k, t := range sent {
		if !seen[k] && t.completed > 0 {
			failures = append(failures, fmt.Sprintf("cell %s/%s: %d completed measurements submitted, none in the detector's output",
				k.pattern, k.region, t.completed))
		}
	}
	sort.Strings(failures)
	if len(failures) > 8 {
		failures = append(failures[:8], fmt.Sprintf("... and %d more cells", len(failures)-8))
	}
	return failures, wrong
}
