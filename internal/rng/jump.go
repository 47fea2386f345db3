package rng

import "math/bits"

// StepJump is a precomputed m-step advance of the xoshiro256★★ state.
//
// The generator's state transition is linear over GF(2) — every update
// is a XOR, shift, or rotation — so advancing m steps is a fixed
// 256×256 bit matrix, independent of the state it is applied to.
// StepJump stores that matrix byte-sliced: one 256-entry table per
// state byte, each entry the XOR contribution of that byte value to the
// advanced state. Applying it is 32 independent table loads and XORs,
// regardless of m.
//
// Hot loops use it when a block of m outputs must be consumed but never
// inspected — the graph observer's homogeneous-row rounds, whose count
// is known from the row alone — turning a serial m-step walk into a
// constant-cost jump with the exact same resulting state as m Uint64
// calls.
type StepJump struct {
	m   int
	tab [32][256][4]uint64
}

// Steps returns the number of stream outputs one Apply consumes.
func (j *StepJump) Steps() int { return j.m }

// NewStepJump builds the m-step jump. Construction runs 256·m serial
// state steps (one per basis bit), so it is meant to be built once and
// shared read-only — the simulator builds one per executor pool and
// hands it to every executor and shard the pool leases.
func NewStepJump(m int) *StepJump {
	if m < 0 {
		panic("rng: NewStepJump called with negative m")
	}
	j := &StepJump{m: m}
	// Advance each unit state to obtain the matrix columns. Linearity
	// holds on the full state space (the all-zero state maps to itself),
	// so the columns combine by XOR for arbitrary states.
	var cols [256][4]uint64
	for bit := 0; bit < 256; bit++ {
		s := unitState(bit)
		s.Advance(m)
		cols[bit] = [4]uint64{s.s0, s.s1, s.s2, s.s3}
	}
	j.fillTab(&cols)
	return j
}

// unitState returns the Source whose 256-bit state has only the given
// bit set.
func unitState(bit int) Source {
	var s Source
	switch bit >> 6 {
	case 0:
		s.s0 = 1 << uint(bit&63)
	case 1:
		s.s1 = 1 << uint(bit&63)
	case 2:
		s.s2 = 1 << uint(bit&63)
	case 3:
		s.s3 = 1 << uint(bit&63)
	}
	return s
}

// fillTab expands the matrix columns into the byte-sliced lookup form:
// tab[bp][b] is the XOR of the columns selected by the bits of b within
// byte position bp, built incrementally from the entry one bit smaller.
func (j *StepJump) fillTab(cols *[256][4]uint64) {
	for bp := 0; bp < 32; bp++ {
		for b := 1; b < 256; b++ {
			lsb := b & -b
			c := &cols[bp*8+bits.TrailingZeros(uint(lsb))]
			p := &j.tab[bp][b^lsb]
			j.tab[bp][b] = [4]uint64{p[0] ^ c[0], p[1] ^ c[1], p[2] ^ c[2], p[3] ^ c[3]}
		}
	}
}

// Square returns the jump advancing twice as many steps. The doubled
// matrix's columns are the images of the unit states under two
// applications of j, so construction costs 512 table applications
// instead of 256·m serial steps — squaring is how long jumps stay
// affordable.
func (j *StepJump) Square() *StepJump {
	out := &StepJump{m: 2 * j.m}
	var cols [256][4]uint64
	for bit := 0; bit < 256; bit++ {
		s := unitState(bit)
		j.Apply(&s)
		j.Apply(&s)
		cols[bit] = [4]uint64{s.s0, s.s1, s.s2, s.s3}
	}
	out.fillTab(&cols)
	return out
}

// JumpLadder holds the powers-of-two multiples of a base jump:
// levels[i] advances base·2^i steps. It turns an arbitrary pending
// advance of r·base steps into popcount(r) table applications, which is
// what makes *deferring* stream advances pay: a consumer that skips a
// round's worth of outputs increments a counter instead of touching the
// generator, and the accumulated debt settles in O(log r) when the
// stream is next read — or never, if it never is.
type JumpLadder struct {
	levels []*StepJump
}

// NewJumpLadder builds depth levels over base (depth ≥ 1; level 0 is
// base itself). Rungs build by repeated squaring, ~30µs and 256 KB
// each, so a ladder is meant to be built once and shared read-only —
// the simulator keeps one per executor pool — with no more rungs than
// the largest debt needs: Flush is exact at any depth, only slower past
// the top rung.
func NewJumpLadder(base *StepJump, depth int) *JumpLadder {
	if depth < 1 {
		panic("rng: NewJumpLadder called with depth < 1")
	}
	l := &JumpLadder{levels: make([]*StepJump, depth)}
	l.levels[0] = base
	for i := 1; i < depth; i++ {
		l.levels[i] = l.levels[i-1].Square()
	}
	return l
}

// Depth returns the ladder's number of rungs.
func (l *JumpLadder) Depth() int { return len(l.levels) }

// BaseSteps returns the stream outputs one unit of Flush debt consumes.
func (l *JumpLadder) BaseSteps() int { return l.levels[0].m }

// Flush advances s by exactly units·BaseSteps() outputs: bit i of units
// applies level i. Debt beyond the top rung settles by repeated top
// applications — two per leftover unit-of-2^depth, so even a debt far
// past the ladder stays O(debt >> depth).
func (l *JumpLadder) Flush(s *Source, units uint64) {
	for i := 0; i < len(l.levels) && units != 0; i++ {
		if units&1 != 0 {
			l.levels[i].Apply(s)
		}
		units >>= 1
	}
	if units != 0 {
		top := l.levels[len(l.levels)-1]
		for k := units << 1; k > 0; k-- {
			top.Apply(s)
		}
	}
}

// Apply advances s by exactly m steps: the state afterwards is
// bit-identical to m Uint64 calls with the results discarded.
func (j *StepJump) Apply(s *Source) {
	var r0, r1, r2, r3 uint64
	x := s.s0
	for k := 0; k < 8; k++ {
		e := &j.tab[k][x&0xff]
		r0 ^= e[0]
		r1 ^= e[1]
		r2 ^= e[2]
		r3 ^= e[3]
		x >>= 8
	}
	x = s.s1
	for k := 8; k < 16; k++ {
		e := &j.tab[k][x&0xff]
		r0 ^= e[0]
		r1 ^= e[1]
		r2 ^= e[2]
		r3 ^= e[3]
		x >>= 8
	}
	x = s.s2
	for k := 16; k < 24; k++ {
		e := &j.tab[k][x&0xff]
		r0 ^= e[0]
		r1 ^= e[1]
		r2 ^= e[2]
		r3 ^= e[3]
		x >>= 8
	}
	x = s.s3
	for k := 24; k < 32; k++ {
		e := &j.tab[k][x&0xff]
		r0 ^= e[0]
		r1 ^= e[1]
		r2 ^= e[2]
		r3 ^= e[3]
		x >>= 8
	}
	s.s0, s.s1, s.s2, s.s3 = r0, r1, r2, r3
}
