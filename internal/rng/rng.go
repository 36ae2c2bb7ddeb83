// Package rng provides small, fast, deterministic random number
// generators and stable hashing utilities used throughout the
// simulator, the traffic generators and the implicit path-subset
// membership tests.
//
// The package intentionally avoids math/rand so that every component
// owns an explicitly seeded generator: all experiments in this
// repository are reproducible bit-for-bit given their seeds, matching
// the paper's methodology of averaging 8-20 seeded runs.
package rng

import "math/bits"

// splitmix64 is the seeding/stream-splitting generator recommended by
// Vigna for initializing xorshift-family state. It is also a perfectly
// good generator on its own and is what we use for stable hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256**-style generator. The zero value is not
// usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via splitmix64 stream
// expansion. Distinct seeds yield independent-looking streams.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed resets the generator to the stream identified by seed.
func (s *Source) Reseed(seed uint64) {
	s.s0 = splitmix64(seed)
	s.s1 = splitmix64(s.s0)
	s.s2 = splitmix64(s.s1)
	s.s3 = splitmix64(s.s2)
	// Avoid the all-zero state (cannot happen via splitmix64 of
	// distinct inputs in practice, but keep the invariant explicit).
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := s.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(p)
	return p
}

// Shuffle permutes p in place.
func (s *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// HashSeed is the initial state of Hash64/Mix chains.
const HashSeed = uint64(0x51_7c_c1_b7_27_22_0a_95)

// Mix folds one word into a running hash state; chains started from
// HashSeed are equivalent to Hash64 of the word sequence. Exposed so
// hot paths can hash incrementally without building a slice.
func Mix(h, w uint64) uint64 { return splitmix64(h ^ w) }

// Hash64 mixes a variable number of 64-bit words into a stable 64-bit
// hash. It is deterministic across runs and platforms; the implicit
// path-subset membership of paths.LengthCapped depends on that
// stability.
func Hash64(words ...uint64) uint64 {
	h := HashSeed
	for _, w := range words {
		h = Mix(h, w)
	}
	return h
}

// Float01 maps a 64-bit hash to [0, 1).
func Float01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}
