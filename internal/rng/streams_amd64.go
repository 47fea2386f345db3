package rng

// useAVX2 selects the vector stream kernels: the CPU reports AVX2 and
// the OS saves the YMM register state across context switches.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS enabled the YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// countRowGroups runs CountRows' vector kernel in place over 8·chunks
// streams held word-major at s0..s3: each advances by exactly blocks·m
// outputs, and counts[b·64+k] receives how many outputs of block b
// select a set bit of rows[k] (bit index x >> shift[0]; shift is 16
// bytes because VPSRLQ reads its count as a 128-bit operand). counts
// points at a [blocks][64]int32 array. It requires AVX2 and chunks, m,
// blocks ≥ 1.
//
//go:noescape
func countRowGroups(s0, s1, s2, s3, rows *uint64, counts *int32, chunks int, shift *[2]uint64, m, blocks int)

// trendGroupsFET runs the d = 2 trend kernel over n streams (a multiple
// of 4) held word-major at s0..s3 with stored counts at prev, against
// the threshold table t and its guide table: exactly two outputs per
// stream, the first compared (masked gathers of t[p] and t[p−1]), the
// second inverted into prev. It returns the up and down masks, bit j
// for stream j. It requires AVX2.
//
//go:noescape
func trendGroupsFET(s0, s1, s2, s3 *uint64, prev *uint16, n int, t *uint64, guide *uint32) (up, down uint64)

// trendGroupsSimple is trendGroupsFET for d = 1: exactly one output per
// stream, inverted into prev and compared with the old stored count.
//
//go:noescape
func trendGroupsSimple(s0, s1, s2, s3 *uint64, prev *uint16, n int, t *uint64, guide *uint32) (up, down uint64)

// seedGroups runs Seed's vector kernel over n streams (a multiple of 4)
// held word-major at s0..s3, stream i mixing in k + i·streamMul after
// StreamSeed's root step h, and, when bound > 0, stores each stream's
// Intn(bound) draw at prev (nil when bound = 0). It returns how many
// streams it seeded: n, or fewer when it stopped before a group whose
// draw might need Lemire's rejection loop, which it leaves untouched.
// It requires AVX2 and bound ≤ 1<<16.
//
//go:noescape
func seedGroups(s0, s1, s2, s3 *uint64, prev *uint16, n int, h, k, bound uint64) (done int)
