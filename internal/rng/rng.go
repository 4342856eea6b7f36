// Package rng provides a small, deterministic pseudo-random number generator
// used throughout the simulator and the learning stack.
//
// Determinism matters here: every experiment in the repository (campaign
// generation, weight initialization, data splits) must be exactly
// reproducible from a seed, across runs and across platforms. We therefore
// avoid math/rand's global state and implement an explicit SplitMix64-based
// generator with the distributions the simulator needs.
package rng

import "math"

// Source is a deterministic PRNG. The zero value is a valid generator seeded
// with zero; prefer New to get well-mixed initial state.
type Source struct {
	state uint64
	// cached spare normal variate for Box-Muller
	hasSpare bool
	spare    float64
}

// New returns a Source seeded with seed. Two sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives a new, statistically independent Source from s. The parent
// stream advances by one step. Splitting lets each simulated entity (cell,
// UE, fading process) own a private stream so that adding one entity never
// perturbs the draws of another.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly distributed bits (SplitMix64).
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Norm returns a standard normal variate (Box-Muller with caching).
func (s *Source) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	var u, v, r2 float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 > 0 && r2 < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r2) / r2)
	s.spare = v * f
	s.hasSpare = true
	return u * f
}

// NormMS returns a normal variate with the given mean and standard deviation.
func (s *Source) NormMS(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(1-s.Float64()) / rate
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders n elements using the provided swap
// function, mirroring math/rand's Shuffle contract.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// OU is a discrete Ornstein-Uhlenbeck process used for temporally correlated
// noise (e.g. shadow-fading evolution, load fluctuation). It relaxes toward
// Mean with rate Theta and is driven by Gaussian noise of scale Sigma.
type OU struct {
	Mean  float64
	Theta float64 // mean-reversion rate per step, in (0, 1]
	Sigma float64 // noise scale per step
	x     float64
	src   *Source
	init  bool
}

// NewOU creates an OU process with its own derived random stream.
func NewOU(src *Source, mean, theta, sigma float64) *OU {
	return &OU{Mean: mean, Theta: theta, Sigma: sigma, src: src.Split()}
}

// Step advances the process one step and returns the new value.
func (o *OU) Step() float64 {
	if !o.init {
		// Start from the stationary distribution so early samples are
		// not biased toward the mean.
		sd := o.Sigma
		if o.Theta > 0 && o.Theta < 2 {
			sd = o.Sigma / math.Sqrt(o.Theta*(2-o.Theta))
		}
		o.x = o.Mean + sd*o.src.Norm()
		o.init = true
		return o.x
	}
	o.x += o.Theta*(o.Mean-o.x) + o.Sigma*o.src.Norm()
	return o.x
}

// Value returns the current value without advancing.
func (o *OU) Value() float64 {
	if !o.init {
		return o.Step()
	}
	return o.x
}
