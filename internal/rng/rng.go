// Package rng provides the deterministic pseudo-random substrate used by
// every simulation in this repository.
//
// All experiments are seeded, and per-trial / per-agent generators are
// derived from a root seed with SplitMix64, so any run is bit-for-bit
// reproducible. The core generator is xoshiro256★★, which is small, fast,
// and has a 2^256−1 period — comfortably enough for population simulations
// that draw billions of variates.
//
// The package deliberately does not depend on math/rand: the simulator
// needs cheap construction of many independent streams (one per agent or
// per trial) with well-defined cross-stream independence, and a stable
// algorithm whose output does not change across Go releases.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256★★ generator. The zero value is not
// usable; construct with New or NewFrom.
type Source struct {
	s0, s1, s2, s3 uint64
}

// SplitMix64 advances the given state by one step and returns the next
// 64-bit output. It is the standard seeding/stream-derivation function
// recommended by the xoshiro authors.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed via SplitMix64.
// Distinct seeds yield independent-looking streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// StreamSeed derives the seed of child stream i from a root seed. It is
// the single stream-derivation rule of the repository: per-agent, per-trial
// and per-replicate generators are all seeded with StreamSeed(root, i), so
// NewFrom(root, i) ≡ New(StreamSeed(root, i)). Distinct stream indices
// yield decorrelated seeds, and the derivation depends only on (root, i) —
// never on execution order — which is what makes batch runs reproducible
// at any parallelism.
func StreamSeed(seed uint64, stream uint64) uint64 {
	st := seed
	_ = SplitMix64(&st)
	st ^= streamMul * (stream + 1)
	return SplitMix64(&st)
}

// streamMul is StreamSeed's per-stream multiplier: child i's seed mixes
// in streamMul·(i+1).
const streamMul = 0xd1342543de82ef95

// NewFrom derives a child Source from a parent seed and a stream index.
// It is the canonical way to obtain per-trial or per-agent generators:
// NewFrom(root, i) and NewFrom(root, j) are decorrelated for i ≠ j.
func NewFrom(seed uint64, stream uint64) *Source {
	return New(StreamSeed(seed, stream))
}

// Reseed resets the Source to the state derived from seed.
func (s *Source) Reseed(seed uint64) {
	st := seed
	s.s0 = SplitMix64(&st)
	s.s1 = SplitMix64(&st)
	s.s2 = SplitMix64(&st)
	s.s3 = SplitMix64(&st)
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
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

// UnitFloat maps one 64-bit stream output to a uniform float64 in
// [0, 1) with 53 bits of precision. It is the single conversion every
// Float64-style draw in the repository uses — a consumer that draws
// raw outputs in bulk (rng.Batch) must apply exactly this function to
// stay bit-identical to a direct Float64 call.
func UnitFloat(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return UnitFloat(s.Uint64())
}

// Fill writes the next len(dst) outputs of the stream into dst. It is
// exactly equivalent to len(dst) consecutive Uint64 calls — same values,
// same order, same final generator state — but keeps the generator state
// in locals across the whole run, which is what Batch uses to amortize
// per-draw overhead without changing any stream.
func (s *Source) Fill(dst []uint64) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// Advance discards the next m outputs of the stream: exactly equivalent
// to m Uint64 calls whose results are ignored, with the state kept in
// locals across the run. Batched consumers use it when a block's
// answer is known without inspecting the values (the trend executor's
// skipped degenerate rounds) but the stream must still move exactly as
// the per-draw path would.
func (s *Source) Advance(m int) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	i := 0
	for ; i+4 <= m; i += 4 {
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	for ; i < m; i++ {
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// CountPacked draws the next m outputs and returns how many select a
// set bit of row when each output x is mapped to the bit index
// x >> shift. With shift = 64 − log₂(d) for a power-of-two d this is
// exactly m Lemire Intn(d) draws (a power-of-two bound never rejects)
// each reading one bit of a packed d-bit row — the graph observer's
// counting kernel, fused with the generator so the values never round-
// trip through memory. Consumes exactly m outputs.
//
// CountPackedBlocks is the same kernel with the two variable shifts
// traded for a multiply and a table load; this single-block form keeps
// the direct extraction, which wins when m is too small to amortize the
// table setup.
func (s *Source) CountPacked(row uint64, shift uint, m int) int {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	var acc uint64
	i := 0
	for ; i+4 <= m; i += 4 {
		x0 := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		x1 := rotl(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		x2 := rotl(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		x3 := rotl(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		acc += row>>(x0>>shift)&1 + row>>(x1>>shift)&1 + row>>(x2>>shift)&1 + row>>(x3>>shift)&1
	}
	for ; i < m; i++ {
		x := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		acc += row >> (x >> shift) & 1
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
	return int(acc)
}

// CountPackedBlocks runs len(counts) consecutive CountPacked(row,
// shift, m) draws with a single state round-trip, storing each block's
// count. It consumes exactly len(counts)·m outputs — one agent's whole
// round of a trend rule on the fused graph path. It is the
// scalar reference of Streams.CountRows, and that kernel's portable
// path.
//
// For rows of at most 64 bits (shift ≥ 58, every packed-row degree) the
// bit extraction runs through a per-call byte table indexed by the high
// Mul64 word — bit i of row at byte i, hi(x·2^k) ≡ x >> (64−k) — which
// replaces the hot loop's two variable shifts (CL-tied, multi-µop on
// amd64) with one widening multiply and one L1 load per output.
func (s *Source) CountPackedBlocks(row uint64, shift uint, m int, counts []int32) {
	if shift < 58 {
		for b := range counts {
			counts[b] = int32(s.CountPacked(row, shift, m))
		}
		return
	}
	var lut [64]byte
	deg := uint64(1)
	if shift < 64 {
		deg = 1 << (64 - shift)
	}
	for i := uint64(0); i < deg; i++ {
		lut[i] = byte(row >> i & 1)
	}
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for b := range counts {
		var acc uint64
		i := 0
		for ; i+4 <= m; i += 4 {
			x0 := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			x1 := rotl(s1*5, 7) * 9
			t = s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			x2 := rotl(s1*5, 7) * 9
			t = s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			x3 := rotl(s1*5, 7) * 9
			t = s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			h0, _ := bits.Mul64(x0, deg)
			h1, _ := bits.Mul64(x1, deg)
			h2, _ := bits.Mul64(x2, deg)
			h3, _ := bits.Mul64(x3, deg)
			acc += uint64(lut[h0&63]) + uint64(lut[h1&63]) + uint64(lut[h2&63]) + uint64(lut[h3&63])
		}
		for ; i < m; i++ {
			x := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			h, _ := bits.Mul64(x, deg)
			acc += uint64(lut[h&63])
		}
		counts[b] = int32(acc)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// FirstRaw returns the first Uint64 of New(seed) without constructing
// the generator: FirstRaw(seed) == New(seed).Uint64() for every seed.
// The first xoshiro output reads only the s1 state word, so seeding can
// stop after two SplitMix64 steps (the first advanced but not mixed —
// its value never feeds the output). Per-(round, agent) decision coins
// (dynamic-rewire Bernoulli) use this to avoid a full reseed for the
// common no-op outcome.
func FirstRaw(seed uint64) uint64 {
	st := seed + 0x9e3779b97f4a7c15 // advance past s0 unmixed
	s1 := SplitMix64(&st)
	return rotl(s1*5, 7) * 9
}

// FirstUnit returns the first Float64 of New(seed) without constructing
// the generator: FirstUnit(seed) == New(seed).Float64() for every seed.
func FirstUnit(seed uint64) float64 {
	return UnitFloat(FirstRaw(seed))
}

// UnitThreshold returns the smallest integer T such that, for every
// 53-bit mantissa m, UnitFloat-style comparison float64(m)/2^53 < p is
// equivalent to m < T. Scaling p by 2^53 is exact (a power-of-two
// exponent shift), so hot Bernoulli coins over raw outputs can compare
// u>>11 < T in integers with no float conversion per draw.
func UnitThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless unbiased bounded generation.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.lemire(s.Uint64(), uint64(n)))
}

// lemire finishes a Lemire bounded draw in [0, bound) whose first
// output x is already drawn: the high word of x·bound, redrawn from s
// while the low word lies below (2^64 − bound) mod bound. It draws
// nothing more unless that low word is below bound (never for a
// power-of-two bound). Source.Intn and Streams.Seed share it, so their
// rejection behavior cannot drift apart. The common no-rejection check
// inlines into its callers; the redraw loop stays out of line. (It calls
// bits.Mul64 directly: the mul64 wrapper's inlining cost would push
// lemire past the compiler's budget.)
func (s *Source) lemire(x, bound uint64) uint64 {
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		return s.lemireRedraw(hi, lo, bound)
	}
	return hi
}

// lemireRedraw is lemire's rejection path for a first product (hi, lo)
// whose low word fell below bound: it redraws while the low word lies
// below the rejection threshold and returns the accepted high word.
//
//go:noinline
func (s *Source) lemireRedraw(hi, lo, bound uint64) uint64 {
	threshold := (-bound) % bound
	for lo < threshold {
		hi, lo = mul64(s.Uint64(), bound)
	}
	return hi
}

// mul64 returns the 128-bit product of a and b as (hi, lo). bits.Mul64
// is a compiler intrinsic (one widening multiply on amd64/arm64) with
// the exact product semantics the Lemire bound needs.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Bernoulli returns true with probability p. Values of p outside [0,1]
// are clamped.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Bit returns a uniformly random bit as a byte (0 or 1).
func (s *Source) Bit() byte {
	return byte(s.Uint64() >> 63)
}

// Shuffle permutes the first n elements using the provided swap function,
// via Fisher–Yates.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Normal returns a standard normal variate using the polar (Marsaglia)
// method. It is used only by the large-n binomial sampler's tail path and
// by statistical tests; hot paths use the binomial samplers directly.
func (s *Source) Normal() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Exp returns an exponentially distributed variate with rate 1.
func (s *Source) Exp() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Jump advances the generator by 2^128 steps, providing a cheap way to
// split one stream into non-overlapping substreams.
func (s *Source) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var t0, t1, t2, t3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				t0 ^= s.s0
				t1 ^= s.s1
				t2 ^= s.s2
				t3 ^= s.s3
			}
			s.Uint64()
		}
	}
	s.s0, s.s1, s.s2, s.s3 = t0, t1, t2, t3
}
