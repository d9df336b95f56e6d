package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values out of 100", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Fork()
	// The child must not replay the parent's sequence.
	p := NewRNG(7)
	p.Uint64() // account for the Fork advancing the parent
	diverged := false
	for i := 0; i < 50; i++ {
		if child.Uint64() != p.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("forked generator replays parent sequence")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v, want ~0.3", frac)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev %v, want ~2", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(8)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exponential(5)
		if v < 0 {
			t.Fatalf("exponential sample negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("exponential mean %v, want ~5", mean)
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(100, 1.5); v < 100 {
			t.Fatalf("Pareto sample below scale: %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(10)
	for _, mean := range []float64{0.5, 3, 20, 120} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.1 {
			t.Fatalf("Poisson(%v) mean %v", mean, got)
		}
	}
	if NewRNG(1).Poisson(0) != 0 {
		t.Fatal("Poisson(0) should be 0")
	}
}

func TestBinomialSampler(t *testing.T) {
	r := NewRNG(11)
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		v := r.Binomial(10, 0.4)
		if v < 0 || v > 10 {
			t.Fatalf("Binomial out of range: %d", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-4) > 0.1 {
		t.Fatalf("Binomial(10, 0.4) mean %v, want ~4", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(12)
	p := r.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("permutation has %d distinct elements, want 50", len(seen))
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRNG(13)
	weights := []float64{0, 1, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		idx := r.WeightedChoice(weights)
		if idx < 0 || idx > 2 {
			t.Fatalf("index out of range: %d", idx)
		}
		counts[idx]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weighted ratio %v, want ~3", ratio)
	}
	if r.WeightedChoice(nil) != -1 {
		t.Fatal("empty weights should return -1")
	}
	if r.WeightedChoice([]float64{0, 0}) != -1 {
		t.Fatal("all-zero weights should return -1")
	}
}

func TestChoice(t *testing.T) {
	r := NewRNG(14)
	if r.Choice(0) != -1 {
		t.Fatal("Choice(0) should be -1")
	}
	for i := 0; i < 1000; i++ {
		if v := r.Choice(5); v < 0 || v >= 5 {
			t.Fatalf("Choice out of range: %d", v)
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := NewRNG(15)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func TestQuickFloat64AlwaysInUnitInterval(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPermProperty(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Test-only draws: nothing in the simulation samples these.

// Pareto returns a Pareto-distributed value with scale xm and shape alpha.
// Heavy-tailed Pareto distributions model Web page popularity and long-tail
// object sizes.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}

// Choice returns a uniformly chosen index into a collection of size n, or -1
// if n <= 0.
func (r *RNG) Choice(n int) int {
	if n <= 0 {
		return -1
	}
	return r.Intn(n)
}
