// Package rng provides a small deterministic random number generator used
// throughout the reproduction.
//
// Every experiment in the paper depends on random state (OS-ELM input
// weights, synthetic dataset draws, QuantTree splits, Monte-Carlo threshold
// calibration). Reproducibility of tables and figures therefore requires a
// generator whose sequence is stable across runs, platforms and Go
// versions — math/rand's global source and its v1/v2 migration do not give
// that guarantee. This package implements xoshiro256** seeded through
// SplitMix64, the combination recommended by Blackman & Vigna, plus the
// distribution helpers the project needs.
//
// Streams: Split derives an independent child generator from a parent, so
// each subsystem (dataset, model init, detector calibration) can own its
// own stream and remain stable when other subsystems change how much
// randomness they consume.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; derive per-goroutine streams with Split instead of
// sharing one.
type Rand struct {
	s [4]uint64
	// cached spare normal deviate from Box-Muller
	hasSpare bool
	spare    float64
}

// splitmix64 advances *x and returns the next SplitMix64 output. It is the
// standard way to expand a 64-bit seed into xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero words from any seed, but keep the guard explicit.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split derives an independent child generator. The child's seed is drawn
// from the parent, so the parent's later outputs are unaffected by how
// much the child consumes.
func (r *Rand) Split() *Rand { return New(r.Uint64()) }

// Float64 returns a uniform deviate in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) * (1.0 / (1 << 53)))
}

// Uniform returns a uniform deviate in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection to
	// remove modulo bias.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

// Norm returns a standard normal deviate via the Box-Muller transform.
func (r *Rand) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Normal returns a normal deviate with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, std float64) float64 { return mean + float64(std*r.Norm()) }

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p uniformly at random (Fisher-Yates).
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.Float64() < p }

// FillNorm fills dst with independent Normal(mean, std) deviates.
func (r *Rand) FillNorm(dst []float64, mean, std float64) {
	for i := range dst {
		dst[i] = r.Normal(mean, std)
	}
}

// FillUniform fills dst with independent Uniform(lo, hi) deviates.
func (r *Rand) FillUniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = r.Uniform(lo, hi)
	}
}
