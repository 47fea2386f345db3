// Tests and benchmarks of the generator's raw-output kernels: the bulk
// Advance, the packed-row counts (CountPacked, CountPackedBlocks and
// Streams.CountRows), the seeding shortcut FirstRaw and the integer
// UnitThreshold compare.
package rng

import "testing"

// drain returns the next k outputs of a copy-independent source.
func drain(s *Source, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = s.Uint64()
	}
	return out
}

// TestAdvanceMatchesSerialDraws: Advance(m) must leave the state exactly
// where m ignored Uint64 calls would, across the unrolled and remainder
// paths.
func TestAdvanceMatchesSerialDraws(t *testing.T) {
	for _, m := range []int{0, 1, 2, 3, 4, 5, 7, 8, 80, 257} {
		a := New(uint64(m) + 9)
		b := *a
		a.Advance(m)
		for i := 0; i < m; i++ {
			b.Uint64()
		}
		if got, want := drain(a, 4), drain(&b, 4); got[0] != want[0] || got[3] != want[3] {
			t.Fatalf("Advance(%d) diverged from %d serial draws", m, m)
		}
	}
}

// TestCountPackedMatchesPerDraw: the fused counting kernel must agree
// with the literal per-draw loop — same count, same stream position —
// for every power-of-two degree, including the degenerate shift = 64
// (degree 1: every output reads bit 0).
func TestCountPackedMatchesPerDraw(t *testing.T) {
	for _, deg := range []uint{1, 2, 8, 64} {
		shift := uint(64)
		for d := deg; d > 1; d >>= 1 {
			shift--
		}
		for _, m := range []int{0, 1, 3, 4, 9, 80} {
			a := New(uint64(deg)*1000 + uint64(m))
			b := *a
			row := a.Uint64() // arbitrary opinion bits; consume from both
			b.Uint64()
			got := a.CountPacked(row, shift, m)
			want := 0
			for i := 0; i < m; i++ {
				want += int(row >> (b.Uint64() >> shift) & 1)
			}
			if got != want {
				t.Fatalf("deg %d m %d: CountPacked = %d, per-draw = %d", deg, m, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("deg %d m %d: CountPacked left the stream misaligned", deg, m)
			}
		}
	}
}

// TestCountPackedBlocksMatchesCountPacked: the multi-block form (the
// Mul64+LUT kernel for shift ≥ 58 and the per-block fallback below)
// must equal consecutive single-block counts on the same stream.
func TestCountPackedBlocksMatchesCountPacked(t *testing.T) {
	for _, shift := range []uint{64, 61, 58, 57} { // 57: the sub-58 fallback
		for _, blocks := range []int{1, 2, 5} {
			for _, m := range []int{1, 4, 7, 80} {
				a := New(uint64(shift)<<8 ^ uint64(blocks*100+m))
				b := *a
				row := a.Uint64()
				b.Uint64()
				counts := make([]int32, blocks)
				a.CountPackedBlocks(row, shift, m, counts)
				for blk := 0; blk < blocks; blk++ {
					if want := int32(b.CountPacked(row, shift, m)); counts[blk] != want {
						t.Fatalf("shift %d blocks %d m %d: block %d = %d, want %d",
							shift, blocks, m, blk, counts[blk], want)
					}
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("shift %d blocks %d m %d: streams misaligned", shift, blocks, m)
				}
			}
		}
	}
}

// TestFirstRawMatchesFullSeed: the seeding shortcut must reproduce the
// constructed generator's first outputs exactly.
func TestFirstRawMatchesFullSeed(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed += 37 {
		if got, want := FirstRaw(seed), New(seed).Uint64(); got != want {
			t.Fatalf("FirstRaw(%d) = %x, New(%d).Uint64() = %x", seed, got, seed, want)
		}
		if got, want := FirstUnit(seed), New(seed).Float64(); got != want {
			t.Fatalf("FirstUnit(%d) = %v, New(%d).Float64() = %v", seed, got, seed, want)
		}
	}
}

// TestUnitThresholdEquivalence: integer comparison against the
// threshold must decide exactly as the float comparison it replaces,
// for mantissas straddling each probability's boundary.
func TestUnitThresholdEquivalence(t *testing.T) {
	for _, p := range []float64{0, 1e-12, 0.2, 0.5, 0.999999, 1} {
		thr := UnitThreshold(p)
		for _, delta := range []int64{-2, -1, 0, 1, 2} {
			m := int64(thr) + delta
			if m < 0 || m >= 1<<53 {
				continue
			}
			intDecision := uint64(m) < thr
			floatDecision := float64(m)/(1<<53) < p
			if intDecision != floatDecision {
				t.Fatalf("p = %v mantissa %d: integer says %v, float says %v",
					p, m, intDecision, floatDecision)
			}
		}
	}
	src := New(11)
	thr := UnitThreshold(0.3)
	for i := 0; i < 4096; i++ {
		u := src.Uint64()
		if (u>>11 < thr) != (UnitFloat(u) < 0.3) {
			t.Fatalf("raw %x: threshold and UnitFloat comparisons disagree", u)
		}
	}
}

func BenchmarkAdvance80(b *testing.B) {
	s := New(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance(80)
	}
}

func BenchmarkCountPackedBlocks(b *testing.B) {
	s := New(42)
	row := s.Uint64()
	counts := make([]int32, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CountPackedBlocks(row, 61, 80, counts)
	}
}

// BenchmarkCountRows counts the same round shape as
// BenchmarkCountPackedBlocks (2 blocks of 80 outputs, degree 8) on one
// word of 64 streams, through the dispatched kernel and the portable
// CountPackedBlocks loop; ns/stream is the per-stream cost to set
// against BenchmarkCountPackedBlocks' ns/op.
func BenchmarkCountRows(b *testing.B) {
	for _, bc := range []struct {
		name   string
		kernel func(*Streams, int, int, []uint64, uint, int, [][64]int32)
	}{
		{"dispatch", (*Streams).CountRows},
		{"generic", func(s *Streams, lo, hi int, rows []uint64, shift uint, m int, counts [][64]int32) {
			s.countRowsGeneric(lo, 0, hi, rows, shift, m, counts)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var s Streams
			s.Resize(64)
			rows := make([]uint64, 64)
			for k := range rows {
				src := New(uint64(42 + k))
				rows[k] = src.Uint64()
				s.Store(k, src)
			}
			counts := make([][64]int32, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.kernel(&s, 0, 64, rows, 61, 80, counts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/stream")
		})
	}
}
