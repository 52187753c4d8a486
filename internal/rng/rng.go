// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the library.
//
// All stochastic components of the reproduction (graph generation,
// realization sampling, reverse-reachable set generation, Monte-Carlo
// estimation) draw from an explicit *Source seeded by the caller, so every
// experiment is exactly reproducible. The generator is xoshiro256++ seeded
// via SplitMix64, the combination recommended by the xoshiro authors.
// math/rand is deliberately not used: its global locking and historical
// seeding behaviour make experiment reproducibility and hot-path
// performance worse.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the SplitMix64 state x by one step and returns the
// mixed output. It is used both to expand a single user seed into the
// 256-bit xoshiro state and to derive independent child seeds.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256++ generator. It is not safe for concurrent use;
// give each goroutine its own Source (see Split).
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source deterministically derived from seed. Distinct seeds
// yield (for all practical purposes) independent streams.
func New(seed uint64) *Source {
	var r Source
	r.Seed(seed)
	return &r
}

// Seed resets the generator to the stream identified by seed.
func (r *Source) Seed(seed uint64) {
	x := seed
	x += 0x9e3779b97f4a7c15
	r.s0 = SplitMix64(x)
	x += 0x9e3779b97f4a7c15
	r.s1 = SplitMix64(x)
	x += 0x9e3779b97f4a7c15
	r.s2 = SplitMix64(x)
	x += 0x9e3779b97f4a7c15
	r.s3 = SplitMix64(x)
	// A xoshiro state of all zeros is a fixed point; the SplitMix expansion
	// of any seed cannot produce it, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

// State exports the generator's 256-bit position in its stream. Together
// with SetState it lets a checkpoint capture "where the randomness is"
// mid-run: restoring the state resumes the exact stream continuation, so
// a session rebuilt from a snapshot draws the same values an
// uninterrupted one would.
func (r *Source) State() [4]uint64 {
	return [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

// SetState restores a position previously exported with State. An
// all-zero state (never produced by Seed or the generator itself, but
// conceivable in a corrupted snapshot) is a xoshiro fixed point and is
// nudged the same way Seed guards it.
func (r *Source) SetState(st [4]uint64) {
	r.s0, r.s1, r.s2, r.s3 = st[0], st[1], st[2], st[3]
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split derives a new Source whose stream is independent of the parent's
// continuation. It consumes one output from the parent.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli reports true with probability p. Values p <= 0 always return
// false and p >= 1 always return true.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *Source) Int31n(n int32) int32 {
	if n <= 0 {
		panic("rng: Int31n called with n <= 0")
	}
	return int32(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's method: take the high 64 bits of a 128-bit product and
	// reject the short low fringe to remove bias.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs uniformly at random in place.
func (r *Source) Shuffle(xs []int32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Exp returns an exponentially distributed value with rate 1, via inverse
// transform sampling. Used by generators that need heavy-tailed weights.
func (r *Source) Exp() float64 {
	// -log(U) with U in (0,1]; shift the [0,1) sample away from zero.
	u := 1.0 - r.Float64()
	return -math.Log(u)
}
