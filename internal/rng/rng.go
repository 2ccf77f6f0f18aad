// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the repository. Every stochastic component
// (data generation, weight init, gating noise, fault schedules) draws from
// an explicitly seeded *rng.RNG so experiments are exactly reproducible.
//
// The generator is xoshiro256** seeded via SplitMix64, following the
// reference constructions by Blackman & Vigna. It is not cryptographically
// secure and is not safe for concurrent use; callers that need parallel
// streams should Split the generator, which derives an independent stream.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator.
// The zero value is not valid; use New.
type RNG struct {
	s [4]uint64
	// cached second Gaussian from Box-Muller
	gauss   float64
	hasNorm bool
}

// splitmix64 advances the state and returns the next SplitMix64 output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Fill overwrites b with pseudo-random bytes, eight per Uint64 draw.
// Distinct seeds yield chunk-level-distinct payloads, which makes it
// the generator of dedup-proof probe and benchmark blobs.
func (r *RNG) Fill(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Split derives a new generator whose stream is independent of the parent's
// subsequent outputs. Both generators remain usable.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection is overkill here;
	// modulo bias is negligible for n << 2^64 but we avoid it anyway.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Norm returns a standard normal variate (Box-Muller).
func (r *RNG) Norm() float64 {
	if r.hasNorm {
		r.hasNorm = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.gauss = radius * math.Sin(theta)
	r.hasNorm = true
	return radius * math.Cos(theta)
}

// SkipNorm leaves the generator exactly where n calls of Norm would —
// the same Uint64 draws, including the redraws of a zero u, and the same
// cached second Gaussian — without computing the variates it discards:
// only an odd tail, whose second Gaussian stays pending, is drawn in full.
// A model restored from a checkpoint uses it to pass over the
// initialization draws of weights it never needed.
func (r *RNG) SkipNorm(n int) {
	if n > 0 && r.hasNorm {
		r.hasNorm = false
		n--
	}
	for ; n >= 2; n -= 2 {
		for r.Float64() == 0 {
		}
		r.Uint64()
	}
	if n == 1 {
		r.Norm()
	}
}

// NormFloat32 returns a normal variate with the given mean and stddev as a
// float32, convenient for weight initialization.
func (r *RNG) NormFloat32(mean, std float64) float32 {
	return float32(mean + std*r.Norm())
}

// Perm returns a pseudo-random permutation of [0, n).
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

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s — the access skew of real read traffic (a few hot base
// models, a long tail). Implemented as inverse-CDF over a precomputed
// table: O(n) to build, O(log n) per sample, deterministic given the
// generator. Like the RNG itself it is not safe for concurrent use;
// give each reader its own (Split the parent generator).
type Zipf struct {
	r   *RNG
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s. It panics on
// n <= 0 or s <= 0 (s ≈ 1 is the classic web-object distribution;
// larger s is more skew).
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if s <= 0 {
		panic("rng: Zipf with non-positive exponent")
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1 // guard against float round-down at the tail
	return &Zipf{r: r, cdf: cdf}
}

// Next draws a rank in [0, n); rank 0 is the most popular.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// Used by Poisson fault schedules.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / rate
		}
	}
}
