// Package sampling provides the randomness and sampling primitives shared by
// every estimator in the repository: a splittable deterministic RNG, uniform
// and weighted reservoir sampling over one-pass streams, a cumulative sampler
// for in-memory weighted sampling, and the median-of-means aggregation used
// to boost constant-probability estimators to high probability.
package sampling

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// SplitMix64. It is not safe for concurrent use; estimators that need
// independent streams of randomness should call Split.
//
// Determinism matters here: experiments and tests seed every estimator
// explicitly so that results are reproducible run to run.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with the given value. Distinct seeds give
// independent-looking streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new RNG whose stream is independent of the receiver's
// future output. It is the supported way to hand sub-components their own
// randomness without sharing state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1), never exactly zero, which
// is convenient for logarithms in exponential sampling.
func (r *RNG) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sampling: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sampling: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles the slice in place (Fisher–Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a geometrically distributed integer k >= 1 with success
// probability p, i.e. the index of the first success in independent
// Bernoulli(p) trials. It panics if p <= 0 or p > 1.
func (r *RNG) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("sampling: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 1
	}
	u := r.Float64Open()
	return int64(math.Ceil(math.Log(u) / math.Log(1-p)))
}
