package rng

// MaxLanes is the most Sources one CountPackedLanes call advances.
const MaxLanes = 8

// CountPackedLanes runs srcs[k].CountPackedBlocks(rows[k], shift, m,
// counts[k]) for every lane k < len(srcs) (at most MaxLanes; every
// counts[k] has the same length, blocks): each source consumes exactly
// blocks·m outputs and counts[k][b] receives the number of those in
// block b that select a set bit of rows[k] (bit index x >> shift).
// Counts and final states are identical, element for element, to the
// per-source calls.
//
// Lanes are independent streams, so they can advance side by side. On
// amd64 with AVX2 (detected once, from CPUID and the OS-enabled YMM
// state) the kernel runs the eight lanes as two interleaved 4-lane
// vector groups; elsewhere it loops over CountPackedBlocks, which stays
// the reference.
func CountPackedLanes(srcs []*Source, rows []uint64, shift uint, m int, counts [][]int32) {
	if len(srcs) > MaxLanes || len(rows) != len(srcs) || len(counts) != len(srcs) {
		panic("rng: CountPackedLanes lane slices disagree or exceed MaxLanes")
	}
	for _, c := range counts {
		if len(c) != len(counts[0]) {
			panic("rng: CountPackedLanes lanes disagree on the block count")
		}
	}
	if useAVX2 && len(srcs) > 0 {
		countPackedLanesVec(srcs, rows, shift, m, counts)
		return
	}
	countPackedLanesGeneric(srcs, rows, shift, m, counts)
}

// countPackedLanesGeneric is the portable lane kernel: one
// CountPackedBlocks pass per source, in lane order.
func countPackedLanesGeneric(srcs []*Source, rows []uint64, shift uint, m int, counts [][]int32) {
	for k, s := range srcs {
		s.CountPackedBlocks(rows[k], shift, m, counts[k])
	}
}

// laneState is the vector kernel's operand block: the lanes' generator
// states transposed word-major (s[w][k] is state word w of lane k, so
// each 4-lane group of a word is one 32-byte load), their rows, the
// shift as a 128-bit count operand, and one block's per-lane counts.
// Unused lanes stay all-zero, a fixed point of the generator, so a
// short queue runs the full width and discards them. The assembly
// addresses the fields by fixed offsets (0, 256, 320, 336).
type laneState struct {
	s     [4][MaxLanes]uint64
	row   [MaxLanes]uint64
	shift [2]uint64
	acc   [MaxLanes]uint64
}

// countPackedLanesVec transposes the lanes into a laneState, runs the
// vector kernel once per block, and scatters counts and final states
// back. The vector block kernel mirrors CountPacked's direct
// extraction: out-of-range bit indices read 0 exactly as Go's
// oversized shifts do, so every shift agrees with the scalar kernels.
func countPackedLanesVec(srcs []*Source, rows []uint64, shift uint, m int, counts [][]int32) {
	var st laneState
	for k, s := range srcs {
		st.s[0][k], st.s[1][k], st.s[2][k], st.s[3][k] = s.s0, s.s1, s.s2, s.s3
		st.row[k] = rows[k]
	}
	st.shift[0] = uint64(shift)
	for b := range counts[0] {
		countLanesBlock(&st, m)
		for k := range srcs {
			counts[k][b] = int32(st.acc[k])
		}
	}
	for k, s := range srcs {
		s.s0, s.s1, s.s2, s.s3 = st.s[0][k], st.s[1][k], st.s[2][k], st.s[3][k]
	}
}

// VectorKernels reports whether CountPackedLanes and Streams.TrendWord
// run their AVX2 kernels on this CPU (the one CPUID check both use).
func VectorKernels() bool { return useAVX2 }
