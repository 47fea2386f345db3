package sim

import (
	"encoding/binary"
	"math/bits"
)

// opinionBits is the packed population opinion array: one bit per agent,
// 64 agents per word. It replaces the []byte opinion/next buffers of the
// agent executor — an 8× reduction in the memory the per-round sweep and
// the literal observers touch, with the population 1-count available by
// popcount instead of a byte-wide sum.
//
// Invariant: bits at indices ≥ n are always zero (zero and packFrom
// clear them; set never addresses them), so ones can popcount whole
// words without masking a tail.
type opinionBits struct {
	words []uint64
	n     int
}

// resize shapes the bitset for n agents, reusing the backing array when
// its capacity allows, and zeroes it.
func (b *opinionBits) resize(n int) {
	w := (n + 63) >> 6
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	}
	b.words = b.words[:w]
	b.n = n
	b.zero()
}

// zero clears every bit.
func (b *opinionBits) zero() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// get returns agent i's opinion bit.
func (b *opinionBits) get(i int) byte {
	return byte(b.words[uint(i)>>6] >> (uint(i) & 63) & 1)
}

// set writes agent i's opinion bit. Concurrent writers must not share a
// word: a sharded sweep aligns its shard boundaries to multiples of
// 64 so each word has exactly one writer.
func (b *opinionBits) set(i int, v byte) {
	w := &b.words[uint(i)>>6]
	m := uint64(1) << (uint(i) & 63)
	if v != 0 {
		*w |= m
	} else {
		*w &^= m
	}
}

// ones returns the number of set bits — the population 1-count — by
// per-word popcount.
func (b *opinionBits) ones() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// packFrom packs the first b.n bytes of ops into the bitset, any
// nonzero byte setting its agent's bit. It does not branch on the
// opinions, so a random start costs no mispredictions: eight bytes at a
// time fold into eight bits (nonzeroBytes), and a word's last few bytes
// go one at a time.
func (b *opinionBits) packFrom(ops []byte) {
	ops = ops[:b.n]
	for wi := range b.words {
		chunk := ops[wi<<6 : min(len(ops), (wi+1)<<6)]
		var w uint64
		i := 0
		for ; i+8 <= len(chunk); i += 8 {
			w |= nonzeroBytes(binary.LittleEndian.Uint64(chunk[i:])) << uint(i)
		}
		for ; i < len(chunk); i++ {
			w |= uint64((uint(chunk[i])+0xff)>>8) << uint(i)
		}
		b.words[wi] = w
	}
}

// nonzeroBytes returns the 8-bit mask whose bit k is set when byte k
// (little-endian) of x is nonzero. Each byte's high bit first records
// whether the byte is nonzero — adding 0x7f to its low seven bits
// carries into bit 7 unless they are zero, and cannot carry out of the
// byte — then one multiply gathers the eight high bits (shifted down to
// bits 8k) into the top byte: bit 8k lands on bit 56+k through the
// factor 2^(56−7k), and every cross product falls below bit 56 or past
// bit 63, at distinct positions, so nothing carries.
func nonzeroBytes(x uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	high := ((x & low7) + low7 | x) &^ low7
	return (high >> 7) * 0x0102040810204080 >> 56
}
