// Package rng is a stub of the real internal/rng surface for the
// rngmirror fixtures. Inside an rng package the analyzer checks that
// raw-consumption kernels document their exact consumption.
package rng

// Source is the stub generator.
type Source struct{ s uint64 }

// Fill writes exactly len(buf) successive stream outputs into buf, in
// draw order.
func (s *Source) Fill(buf []uint64) {
	for i := range buf {
		s.s++
		buf[i] = s.s
	}
}

// Advance discards the next n outputs.
func (s *Source) Advance(n uint64) { s.s += n } // want `kernel Advance must document its exact stream consumption`

// Uint64 returns the next raw stream output.
func (s *Source) Uint64() uint64 { s.s++; return s.s }

// Intn is a typed draw: the accounting is internal to rng.
func (s *Source) Intn(n int) int { return int(s.Uint64() % uint64(n)) }

// Streams is the stub word-major stream block.
type Streams struct{ s []uint64 }

// Advance discards exactly k outputs of every stream in [lo, hi).
func (b *Streams) Advance(lo, hi, k int) {
	for i := lo; i < hi; i++ {
		b.s[i] += uint64(k)
	}
}

// TrendWord steps the streams [lo, hi) one trend round.
func (b *Streams) TrendWord(d int, prev []uint16, lo, hi int) (up, down uint64) { // want `kernel TrendWord must document its exact stream consumption`
	for i := lo; i < hi; i++ {
		b.s[i] += uint64(d)
		if b.s[i]&1 == 1 {
			up |= 1 << uint(i-lo)
		}
	}
	return up, down
}

// Seed restarts the streams [lo, hi) from root and, when bound > 0,
// draws exactly one bounded count per stream into prev.
func (b *Streams) Seed(root uint64, lo, hi, bound int, prev []uint16) {
	for i := lo; i < hi; i++ {
		b.s[i] = root + uint64(i)
		if bound > 0 {
			b.s[i]++
			prev[i] = uint16(b.s[i] % uint64(bound))
		}
	}
}

// CountRows advances each stream of [lo, hi) by exactly
// len(counts)·m outputs, counting set row bits.
func (b *Streams) CountRows(lo, hi int, rows []uint64, shift uint, m int, counts [][64]int32) {
	for i := lo; i < hi; i++ {
		for c := range counts {
			for k := 0; k < m; k++ {
				b.s[i]++
				counts[c][i-lo] += int32(rows[i-lo] >> (b.s[i] >> shift) & 1)
			}
		}
	}
}

// Store sets stream i's state; it consumes nothing.
func (b *Streams) Store(i int, src *Source) { b.s[i] = src.s }
