// Package stats provides the statistical primitives used throughout the
// Encore reproduction: a deterministic random number generator, binomial
// distribution math for the filtering detection hypothesis test, empirical
// CDFs for the feasibility figures, and summary statistics.
//
// Every stochastic component in the repository draws its randomness from an
// explicitly seeded RNG defined here so that experiments are reproducible.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator based on
// SplitMix64. It is not safe for concurrent use; callers that need
// per-goroutine randomness should Fork the generator.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators created with
// the same seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// RNGFrom returns a generator seeded with seed, by value. Hot paths that mint
// a short-lived generator per call (the scheduler derives one per assignment
// from an atomic counter) declare it on the stack this way so drawing
// randomness never allocates.
func RNGFrom(seed uint64) RNG {
	return RNG{state: seed}
}

// Fork derives a new independent generator from the current one. The parent
// advances by one step, so repeated forks yield distinct children.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64-bit value in the sequence.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a normally distributed float64 with mean 0 and standard
// deviation 1, using the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Exponential returns an exponentially distributed value with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Poisson returns a Poisson-distributed integer with the given mean, using
// Knuth's algorithm for small means and a normal approximation for large
// means.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		v := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		k++
		p *= r.Float64()
		if p <= l {
			return k - 1
		}
	}
}

// Binomial returns the number of successes in n Bernoulli trials with success
// probability p.
func (r *RNG) Binomial(n int, p float64) int {
	successes := 0
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			successes++
		}
	}
	return successes
}

// Perm returns a pseudo-random permutation of the integers [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedChoice returns an index chosen with probability proportional to
// weights[i]. It returns -1 if weights is empty or sums to a non-positive
// value.
func (r *RNG) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	target := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
