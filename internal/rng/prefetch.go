package rng

import "math/bits"

// Prefetch is a read-through buffer over a Source for hot paths that
// consume a known lower bound of stream outputs per phase (an agent's
// round of observation draws, say). Bind bulk-loads the next d outputs
// in one Source.Fill; the mirrored consuming calls (Uint64, Float64,
// Intn) then read buffered values in order and fall through to the live
// Source once the buffer drains.
//
// The determinism contract: as long as the phase consumes at least d
// outputs through the Prefetch, every consuming call reads exactly the
// value it would have drawn from the Source directly, and the Source's
// state after the phase is identical to the unbatched path. (Fill is
// defined as exactly d consecutive Uint64 calls, and the fall-through
// continues the same stream.) Prefetching more than the guaranteed
// consumption would skip outputs and fork the stream — callers must
// size d from a lower bound, never an estimate.
//
// Unlike Batch, a Prefetch never discards stream outputs, so it is safe
// on persistent streams that outlive the phase (per-agent generators).
type Prefetch struct {
	src  *Source
	buf  []uint64
	pos  int
	have int
}

// Init sizes the buffer for phases of up to capacity outputs. It reuses
// the backing array when possible; Bind with a larger d than capacity
// panics, so callers size once at construction and stay allocation-free
// afterwards.
func (p *Prefetch) Init(capacity int) {
	if cap(p.buf) < capacity {
		p.buf = make([]uint64, capacity)
	}
	p.buf = p.buf[:capacity]
}

// Bind aims the Prefetch at src and bulk-loads the next d outputs.
// d = 0 loads nothing: every consuming call passes straight through to
// src, which keeps one code path for batched and unbatched callers.
func (p *Prefetch) Bind(src *Source, d int) {
	p.src = src
	if d > 0 {
		src.Fill(p.buf[:d])
	}
	p.pos, p.have = 0, d
}

// Uint64 returns the next stream output: buffered first, then live.
func (p *Prefetch) Uint64() uint64 {
	if p.pos < p.have {
		u := p.buf[p.pos]
		p.pos++
		return u
	}
	return p.src.Uint64()
}

// Float64 mirrors Source.Float64 exactly (one output, UnitFloat).
func (p *Prefetch) Float64() float64 {
	return UnitFloat(p.Uint64())
}

// Intn mirrors Source.Intn exactly — Lemire's nearly-divisionless
// bounded generation, consuming one output plus the same rejections the
// Source itself would draw. It panics if n <= 0.
func (p *Prefetch) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	x := p.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = p.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}
