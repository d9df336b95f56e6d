// Package stat holds the few order statistics the benchmark reports with:
// percentiles of a latency sample, the highest percentile a sample of a given
// size supports, medians over the slices of a run, and the quartile spread
// the A/A check compares against each metric's bound.
package stat

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule, so the answer is always a value that was measured. It
// sorts xs in place and returns 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)]
}

// rank is the zero-based nearest-rank index of the p-th percentile among n
// sorted samples.
func rank(n int, p float64) int {
	// The small term keeps 99.9 % of 10000 at 9990 and not, through floating
	// point, a hair above it.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Beyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, the figure is one or two outliers, not a
// tail.
const Beyond = 10

// HighestSupported returns the highest of the usual tail percentiles
// (99.9, 99, 95, 90, 75, 50) that still has at least Beyond samples above it
// in a sample of size n, and 50 when even the median does not.
func HighestSupported(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if n-1-rank(n, p) >= Beyond {
			return p
		}
	}
	return 50
}

// TailPercentile is the percentile a tail metric named for want (99 for
// op_p99_ms) is read at in a sample of size n: want itself when the sample
// supports it, otherwise the highest percentile it does support.
func TailPercentile(n int, want float64) float64 {
	if n-1-rank(n, want) >= Beyond {
		return want
	}
	if hi := HighestSupported(n); hi < want {
		return hi
	}
	return want
}

// Median returns the median of xs (the mean of the two middle values for an
// even count). It sorts a copy and returns 0 for an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// MidMean is the interquartile mean: the mean of the middle half of xs. The
// benchmark reads a rate off the slices of a run with it: a quarter of the
// slices may be hit by a stall of the sandbox without moving the figure,
// and unlike the median it still averages the slices it keeps. Fewer than
// four values are simply averaged.
func MidMean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := 0, n
	if n >= 4 {
		lo, hi = n/4, n-n/4
	}
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// Quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, which is what the
// driver's acceptance check computes. It needs at least two values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// position k*(n+1)/4 in one-based ranks, linearly interpolated and
		// clamped to the sample.
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// Spread is the distance between the quartiles of xs as a share of their
// median: the run-to-run noise figure a metric's bound is judged against.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// SliceTail splits xs, in the order given, into consecutive slices of at
// least minPer samples (at most maxSlices of them), reads each slice at the
// percentile its size supports for want, and returns the median of those
// readings with the percentile actually used. One slow second then moves
// one slice's reading instead of the whole run's tail.
func SliceTail(xs []float64, want float64, minPer, maxSlices int) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, want
	}
	slices := n / minPer
	if slices > maxSlices {
		slices = maxSlices
	}
	if slices < 1 {
		slices = 1
	}
	per := n / slices
	used = TailPercentile(per, want)
	readings := make([]float64, 0, slices)
	for i := 0; i < slices; i++ {
		lo, hi := i*per, (i+1)*per
		if i == slices-1 {
			hi = n
		}
		part := append([]float64(nil), xs[lo:hi]...)
		readings = append(readings, Percentile(part, used))
	}
	return Median(readings), used
}
