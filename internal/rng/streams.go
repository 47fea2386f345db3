package rng

// Streams holds n xoshiro256★★ generators word-major: stream i's state
// is (s0[i], s1[i], s2[i], s3[i]), so four consecutive streams' copies
// of one state word are one 32-byte vector load. It is the trend
// executor's per-agent stream store (32 bytes per stream, the same as
// a []Source) and the operand of its two kernels: TrendWord under
// uniform mixing and CountRows on graphs. The zero value holds no
// streams; Resize sizes it.
type Streams struct {
	s0, s1, s2, s3 []uint64
}

// Resize makes s hold n streams, reusing its backing arrays when their
// capacity allows. Stream states are unspecified until Seed or Store.
func (s *Streams) Resize(n int) {
	if cap(s.s0) < n {
		s.s0, s.s1, s.s2, s.s3 = make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	}
	s.s0, s.s1, s.s2, s.s3 = s.s0[:n], s.s1[:n], s.s2[:n], s.s3[:n]
}

// Seed resets every stream j in [lo, hi) to the state
// Source.Reseed(StreamSeed(root, j+1)) gives — the per-agent layout, in
// which child stream 0 is the initializer's — and, when bound > 0, then
// draws prev[j] = Intn(bound) from it. Per stream it consumes exactly
// one Intn(bound) draw when bound > 0 (one output, plus Lemire's
// rejections, through the code Source.Intn runs) and nothing when
// bound = 0, which leaves prev untouched. bound must not exceed 1<<16,
// so every draw fits a uint16.
//
// It is the trend executor's populate in one pass. On amd64 with AVX2
// (the CPUID check TrendWord uses) four streams seed per vector step;
// a group whose draw might reject, a tail of fewer than
// four streams and every stream elsewhere run the portable loop,
// seedGeneric, which is the reference: states and counts are identical.
func (s *Streams) Seed(root uint64, lo, hi, bound int, prev []uint16) {
	if bound > 1<<16 {
		panic("rng: Streams.Seed bound exceeds 1<<16")
	}
	if useAVX2 {
		lo = s.seedVec(root, lo, hi, bound, prev)
	}
	s.seedGeneric(root, lo, hi, bound, prev)
}

// seedVec runs Seed's whole 4-stream groups of [lo, hi) through the
// AVX2 kernel and returns where the tail starts. The kernel stops
// before a group in which some lane's Lemire product has a low word
// below 2^16 (every draw that could reject, and a few that cannot;
// about 2^−48 per stream), and seedGeneric seeds that group before the
// kernel resumes.
func (s *Streams) seedVec(root uint64, lo, hi, bound int, prev []uint16) int {
	h := root
	_ = SplitMix64(&h) // StreamSeed's root step
	for hi-lo >= 4 {
		s0 := s.s0[lo:hi]
		n := len(s0) &^ 3
		s1, s2, s3 := s.s1[lo:hi][:n], s.s2[lo:hi][:n], s.s3[lo:hi][:n]
		var pv *uint16
		if bound > 0 {
			pv = &prev[lo:hi][:n][0]
		}
		done := seedGroups(&s0[0], &s1[0], &s2[0], &s3[0], pv, n, h, streamMul*(uint64(lo)+2), uint64(bound))
		lo += done
		if done == n {
			break
		}
		s.seedGeneric(root, lo, lo+4, bound, prev)
		lo += 4
	}
	return lo
}

// seedGeneric is Seed's portable kernel over [lo, hi), with the same
// contract: StreamSeed's first SplitMix64 step depends on root alone
// and is taken once, and the per-stream multiplier advances by
// addition.
func (s *Streams) seedGeneric(root uint64, lo, hi, bound int, prev []uint16) {
	s0 := s.s0[lo:hi]
	s1, s2, s3 := s.s1[lo:hi][:len(s0)], s.s2[lo:hi][:len(s0)], s.s3[lo:hi][:len(s0)]
	var pv []uint16
	if bound > 0 {
		pv = prev[lo:hi][:len(s0)]
	}
	h := root
	_ = SplitMix64(&h)                // StreamSeed's root step
	k := streamMul * (uint64(lo) + 2) // stream j+1 mixes in streamMul·(j+2)
	ub := uint64(bound)
	var src Source
	for j := range s0 {
		st := h ^ k
		k += streamMul
		src.Reseed(SplitMix64(&st))
		if ub > 0 {
			pv[j] = uint16(src.lemire(src.Uint64(), ub))
		}
		s0[j], s1[j], s2[j], s3[j] = src.s0, src.s1, src.s2, src.s3
	}
}

// Load copies stream i's state into dst.
func (s *Streams) Load(i int, dst *Source) {
	dst.s0, dst.s1, dst.s2, dst.s3 = s.s0[i], s.s1[i], s.s2[i], s.s3[i]
}

// Store sets stream i's state to src's.
func (s *Streams) Store(i int, src *Source) {
	s.s0[i], s.s1[i], s.s2[i], s.s3[i] = src.s0, src.s1, src.s2, src.s3
}

// Advance discards the next k outputs of every stream in [lo, hi):
// exactly k outputs per stream, as Source.Advance(k) on each.
func (s *Streams) Advance(lo, hi, k int) {
	var src Source
	for i := lo; i < hi; i++ {
		s.Load(i, &src)
		src.Advance(k)
		s.Store(i, &src)
	}
}

// TrendWord advances the streams [lo, hi) — at most 64, typically one
// opinion word's agents — by one live round of the trend rule and
// returns the agents' verdicts as bit masks relative to lo: bit j−lo of
// up is set when agent j's compared count exceeds its stored count
// prev[j], bit j−lo of down when it falls short. Per stream it consumes
// exactly d ∈ {1, 2} outputs. With d = 2 (FET) the first output is the
// compared draw, decided against thr without inverting it
// (trendVerdict), and the second is the stored draw; with d = 1
// (SimpleTrend) the single draw is both. The stored draw is inverted
// against thr (the smallest k with mant < t[k], scanned up from the
// guide table) into prev[j].
//
// prev is indexed like the streams, and every prev[j] in [lo, hi) must
// lie in [0, thr.N()]: the vector kernel indexes the threshold table
// with it unchecked. On amd64 with AVX2 (the CPUID check CountRows
// uses) four streams step per vector instruction and a tail of fewer
// than four runs the portable kernel, TrendWordGeneric, which is the
// reference: masks, stored counts and final states are identical.
func (s *Streams) TrendWord(d int, thr *BinomialThresholds, prev []uint16, lo, hi int) (up, down uint64) {
	if useAVX2 {
		return s.trendWordVec(d, thr, prev, lo, hi)
	}
	return s.TrendWordGeneric(d, thr, prev, lo, hi)
}

// trendWordVec runs TrendWord's whole 4-stream groups through the AVX2
// kernel and the tail through TrendWordGeneric.
func (s *Streams) trendWordVec(d int, thr *BinomialThresholds, prev []uint16, lo, hi int) (up, down uint64) {
	if hi-lo > 64 {
		panic("rng: TrendWord spans more than 64 streams")
	}
	mid := lo + (hi-lo)&^3
	if mid > lo {
		s0, s1, s2, s3 := s.s0[lo:mid], s.s1[lo:mid], s.s2[lo:mid], s.s3[lo:mid]
		pv := prev[lo:mid]
		t, g := thr.Thresholds(), thr.Guide()
		if d == 2 {
			up, down = trendGroupsFET(&s0[0], &s1[0], &s2[0], &s3[0], &pv[0], len(s0), &t[0], &g[0])
		} else {
			up, down = trendGroupsSimple(&s0[0], &s1[0], &s2[0], &s3[0], &pv[0], len(s0), &t[0], &g[0])
		}
	}
	if mid < hi {
		u, dn := s.TrendWordGeneric(d, thr, prev, mid, hi)
		up |= u << uint(mid-lo)
		down |= dn << uint(mid-lo)
	}
	return up, down
}

// TrendWordGeneric is TrendWord's portable kernel: the same contract,
// consuming exactly d outputs per stream in [lo, hi). It runs in two
// passes over the word, each with few enough live values to stay in
// registers: the first steps every stream d times into a stack buffer of
// raw outputs, the second decides and inverts them. TrendWord takes it
// off AVX2 and for the tail of a word; it is exported so benchmarks
// outside the package can time the reference beside the dispatched
// kernel.
func (s *Streams) TrendWordGeneric(d int, thr *BinomialThresholds, prev []uint16, lo, hi int) (up, down uint64) {
	var buf1, buf2 [64]uint64
	// Reslicing to len(s0) lets the compiler drop the bounds checks on
	// the other slices; the buffers' reslice rejects spans over 64.
	s0 := s.s0[lo:hi]
	s1, s2, s3 := s.s1[lo:hi][:len(s0)], s.s2[lo:hi][:len(s0)], s.s3[lo:hi][:len(s0)]
	pv := prev[lo:hi][:len(s0)]
	raw1, raw2 := buf1[:len(s0)], buf2[:len(s0)]
	for j := range s0 {
		a, b, c, e := s0[j], s1[j], s2[j], s3[j]
		raw1[j] = rotl(b*5, 7) * 9
		a, b, c, e = xoshiroStep(a, b, c, e)
		if d == 2 {
			raw2[j] = rotl(b*5, 7) * 9
			a, b, c, e = xoshiroStep(a, b, c, e)
		}
		s0[j], s1[j], s2[j], s3[j] = a, b, c, e
	}
	t, g := thr.Thresholds(), thr.Guide()
	bit := uint64(1) // stream j's mask bit, 1 << j
	if d == 2 {
		for j := range pv {
			u, dn := trendVerdict(t, raw1[j]>>11, int(pv[j]))
			mant := raw2[j] >> 11
			k := int(g[mant>>GuideShift])
			for mant >= t[k] {
				k++
			}
			pv[j] = uint16(k)
			up |= pick(u, bit)
			down |= pick(dn, bit)
			bit <<= 1
		}
		return up, down
	}
	for j := range pv {
		mant := raw1[j] >> 11
		k := int(g[mant>>GuideShift])
		for mant >= t[k] {
			k++
		}
		p := int(pv[j])
		pv[j] = uint16(k)
		up |= pick(k > p, bit)
		down |= pick(k < p, bit)
		bit <<= 1
	}
	return up, down
}

// maxRowBlocks bounds CountRows' blocks per stream: the trend rules'
// d ∈ {1, 2} counts per round.
const maxRowBlocks = 2

// CountRows advances every stream of [lo, hi) — at most 64, typically
// one opinion word's agents — by len(counts) ≤ maxRowBlocks blocks of m
// outputs each. counts[b][j−lo] receives how many outputs of block b
// select a set bit of the packed row rows[j−lo] (bit index x >> shift).
// Per stream it consumes exactly len(counts)·m outputs, with the counts
// and final state Source.CountPackedBlocks(rows[j−lo], shift, m, ·)
// gives; every stream outside [lo, hi) keeps its state.
//
// On amd64 with AVX2 whole 8-stream chunks are counted in place by the
// vector kernel, whose extraction mirrors CountPacked's (an index of 64
// or more reads 0, as Go's oversized shifts do); a tail of fewer than
// eight streams, and every stream elsewhere, runs CountPackedBlocks,
// which stays the reference.
func (s *Streams) CountRows(lo, hi int, rows []uint64, shift uint, m int, counts [][64]int32) {
	if hi-lo > 64 || len(counts) > maxRowBlocks {
		panic("rng: CountRows spans more than 64 streams or maxRowBlocks blocks")
	}
	mid := lo
	if useAVX2 && m > 0 && len(counts) > 0 {
		mid += max(hi-lo, 0) &^ 7
	}
	if mid > lo {
		s0, s1, s2, s3 := s.s0[lo:mid], s.s1[lo:mid], s.s2[lo:mid], s.s3[lo:mid]
		r := rows[:mid-lo]
		sh := [2]uint64{uint64(shift)}
		countRowGroups(&s0[0], &s1[0], &s2[0], &s3[0], &r[0], &counts[0][0], len(s0)/8, &sh, m, len(counts))
	}
	s.countRowsGeneric(lo, mid-lo, hi, rows, shift, m, counts)
}

// countRowsGeneric is CountRows' portable kernel over the streams
// [lo+k0, hi), rows and counts still indexed from lo: one
// CountPackedBlocks pass per stream, in stream order.
func (s *Streams) countRowsGeneric(lo, k0, hi int, rows []uint64, shift uint, m int, counts [][64]int32) {
	var src Source
	var c [maxRowBlocks]int32
	for k := k0; k < hi-lo; k++ {
		s.Load(lo+k, &src)
		src.CountPackedBlocks(rows[k], shift, m, c[:len(counts)])
		s.Store(lo+k, &src)
		for b := range counts {
			counts[b][k] = c[b]
		}
	}
}

// VectorKernels reports whether Streams.TrendWord, Streams.CountRows
// and Streams.Seed run their AVX2 kernels on this CPU (the one CPUID
// check all three use).
func VectorKernels() bool { return useAVX2 }

// xoshiroStep is one xoshiro256★★ state transition, as in Uint64.
func xoshiroStep(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64) {
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return s0, s1, s2, rotl(s3, 45)
}

// pick returns bit when b holds and 0 otherwise, as a conditional move.
func pick(b bool, bit uint64) uint64 {
	var v uint64
	if b {
		v = bit
	}
	return v
}

// trendVerdict decides the trend rule for one draw without inverting
// it: with c′ the count mant inverts to against the threshold table t
// (the smallest k with mant < t[k]) and p ∈ [0, m] the stored count, it
// reports up = c′ > p and down = c′ < p. t is nondecreasing on [0, m)
// and every 53-bit mant lies below t[m] = 2^53 (and below t[m−1], which
// accumulation can push a few units past t[m]), so "mant < t[k]" is
// monotone in k and c′ > p ⟺ mant ≥ t[p], c′ < p ⟺ p > 0 ∧ mant <
// t[p−1]. (At p = m the first compare is never true: mant < 2^53.)
func trendVerdict(t []uint64, mant uint64, p int) (up, down bool) {
	up = mant >= t[p]
	down = p > 0 && mant < t[p-1]
	return up, down
}
