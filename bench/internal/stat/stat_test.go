package stat

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1, 99.9: 100} {
		if got := Percentile(xs, p); got != want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of an empty sample = %v, want 0", got)
	}
}

// The highest percentile reported must leave at least ten samples beyond it.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := HighestSupported(c.n); got != c.want {
			t.Errorf("HighestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
		p := HighestSupported(c.n)
		if beyond := c.n - 1 - rank(c.n, p); p > 50 && beyond < Beyond {
			t.Errorf("HighestSupported(%d) = %v leaves only %d samples beyond", c.n, p, beyond)
		}
	}
	if got := TailPercentile(2000, 99); got != 99 {
		t.Errorf("TailPercentile(2000, 99) = %v, want 99", got)
	}
	if got := TailPercentile(500, 99); got != 95 {
		t.Errorf("TailPercentile(500, 99) = %v, want 95", got)
	}
}

// Quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver's acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)  -> [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// >>> statistics.quantiles([3, 1, 4, 1, 5], n=4) -> [1.0, 3.0, 4.5]
	q1, q3 = Quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("Quartiles(3,1,4,1,5) = %v, %v, want 1, 4.5", q1, q3)
	}
	if got, want := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want %v", got, want)
	}
}

func TestMidMeanShedsAStalledQuarter(t *testing.T) {
	clean := []float64{100, 101, 99, 100, 102, 98, 100, 100}
	stalled := append([]float64(nil), clean...)
	stalled[0], stalled[3] = 40, 55 // two of eight slices hit by a stall
	if a, b := MidMean(clean), MidMean(stalled); math.Abs(a-b) > 1 {
		t.Errorf("MidMean moved from %v to %v when a quarter of the slices stalled", a, b)
	}
	if got := MidMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("MidMean of three values = %v, want their mean 2", got)
	}
}

func TestSliceTail(t *testing.T) {
	// Four slices of 1000 samples; the third has a disturbed tail.
	var xs []float64
	for s := 0; s < 4; s++ {
		for i := 0; i < 1000; i++ {
			v := float64(i%100) / 100
			if s == 2 && i%20 == 0 {
				v = 50
			}
			xs = append(xs, v)
		}
	}
	got, used := SliceTail(xs, 99, 1000, 12)
	if used != 99 {
		t.Errorf("used percentile %v, want 99", used)
	}
	if got > 1 {
		t.Errorf("SliceTail = %v: one disturbed slice moved the median of four", got)
	}
	// Too few samples for p99: the reading falls back, and says so.
	if _, used := SliceTail(xs[:300], 99, 1000, 12); used != 95 {
		t.Errorf("300 samples read at p%v, want p95", used)
	}
}
