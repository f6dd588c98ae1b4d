// Package stats provides the deterministic randomness, probability
// distributions, and summary statistics used throughout the reproduction.
//
// Every simulation in the repository takes an explicit *RNG so that runs
// are reproducible from a seed; there are no package-level random sources
// (see the Uber style guide's "Avoid Mutable Globals").
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). Its sequence is stable across Go releases, which keeps
// golden-value tests meaningful. RNG is not safe for concurrent use; give
// each goroutine its own via Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, so that
// nearby seeds yield uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		r.s[i] = Mix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Mix64 is the SplitMix64 finalizer: a bijective bit mixer that turns
// structured inputs (a counter, a hash plus an offset) into uniformly
// spread 64-bit values. It seeds RNG, and the Hash-y, multi-probe and
// zone-spread assignments and the selector's route cache hash with it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent generator from r's stream, for use by a
// different component (e.g. one RNG per server node).
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("stats: IntN called with n <= 0")
	}
	return int(r.Uint64N(uint64(n)))
}

// Uint64N returns a uniform uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64N(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64N called with n == 0")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo < n {
			thresh := -n % n
			if lo < thresh {
				continue
			}
		}
		return hi
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// via inverse-transform sampling.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.IntN(i+1))
	}
}

// SampleInts returns k distinct uniform values from [0, n). It panics if
// k > n or k < 0. The result is in random order.
func (r *RNG) SampleInts(n, k int) []int {
	if k < 0 || k > n {
		panic("stats: SampleInts requires 0 <= k <= n")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
