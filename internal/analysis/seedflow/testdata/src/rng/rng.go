// Package rng is a minimal stub of the real internal/rng surface, just
// enough for the seedflow fixtures to type-check. The analyzer matches
// it through fwk.PathTail, so the same rules apply as to the real one.
package rng

// Source is the stub generator.
type Source struct{ s uint64 }

// SplitMix64 is the raw derivation kernel.
func SplitMix64(x uint64) uint64 { return x * 0x9e3779b97f4a7c15 }

// StreamSeed derives stream i's seed from the root seed.
func StreamSeed(root, i uint64) uint64 { return SplitMix64(root + i) }

// New seeds a fresh generator.
func New(seed uint64) *Source { return &Source{s: seed} }

// NewFrom is New(StreamSeed(root, i)).
func NewFrom(root, i uint64) *Source { return New(StreamSeed(root, i)) }

// Reseed resets the generator onto seed's stream.
func (s *Source) Reseed(seed uint64) { s.s = seed }

// Uint64 returns the next output.
func (s *Source) Uint64() uint64 { s.s++; return s.s }

// Streams is the stub word-major stream block.
type Streams struct{ s []uint64 }

// Seed restarts stream j in [lo, hi) on StreamSeed(root, j+1).
func (b *Streams) Seed(root uint64, lo, hi, bound int, prev []uint16) {
	for j := lo; j < hi; j++ {
		b.s[j] = StreamSeed(root, uint64(j)+1)
	}
}
