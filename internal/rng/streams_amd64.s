#include "go_asm.h"
#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The fused trend kernels step four streams per vector instruction. The
// streams' state words s0..s3 live in Y0-Y3 for one 4-stream group;
// every value compared is below 2^63 (53-bit mantissas, thresholds at
// most a few units past 2^53, counts below 2^16), so the signed
// VPCMPGTQ is an exact unsigned compare.
//
// Scalar registers:
//
//	SI, DI, R8, R9  the group's s0..s3 words
//	R10             the group's stored counts (4 × uint16)
//	R11             stream count n (a multiple of 4)
//	R12, R13        threshold table t, guide table (uint32 entries)
//	CX              the group's first bit (0, 4, 8, ...)
//	DX, BX          up and down masks
//	AX              temporary

// trendLowDwords selects the low dword of each qword into the low
// 128 bits (VPERMD index vector).
DATA trendLowDwords<>+0(SB)/4, $0
DATA trendLowDwords<>+4(SB)/4, $2
DATA trendLowDwords<>+8(SB)/4, $4
DATA trendLowDwords<>+12(SB)/4, $6
DATA trendLowDwords<>+16(SB)/4, $0
DATA trendLowDwords<>+20(SB)/4, $2
DATA trendLowDwords<>+24(SB)/4, $4
DATA trendLowDwords<>+28(SB)/4, $6
GLOBL trendLowDwords<>(SB), RODATA|NOPTR, $32

// XOSHIRO_OUT sets dst = rotl(s1*5, 7) * 9 for the state word s1,
// with the multiplies as shift+add and the rotation as shift/shift/or.
#define XOSHIRO_OUT(s1, dst, tmp) \
	VPSLLQ $2, s1, dst; \
	VPADDQ s1, dst, dst; \
	VPSLLQ $7, dst, tmp; \
	VPSRLQ $57, dst, dst; \
	VPOR   tmp, dst, dst; \
	VPSLLQ $3, dst, tmp; \
	VPADDQ tmp, dst, dst

// XOSHIRO_STEP advances the state words s0-s3 one transition: t = s1 <<
// 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl(s3, 45).
#define XOSHIRO_STEP(s0, s1, s2, s3, tmp) \
	VPSLLQ $17, s1, tmp; \
	VPXOR  s0, s2, s2; \
	VPXOR  s1, s3, s3; \
	VPXOR  s2, s1, s1; \
	VPXOR  s3, s0, s0; \
	VPXOR  tmp, s2, s2; \
	VPSLLQ $45, s3, tmp; \
	VPSRLQ $19, s3, s3; \
	VPOR   tmp, s3, s3

// LOAD_GROUP loads the group's states into Y0-Y3 and its stored counts,
// zero-extended, into Y6.
#define LOAD_GROUP \
	VMOVDQU   (SI), Y0; \
	VMOVDQU   (DI), Y1; \
	VMOVDQU   (R8), Y2; \
	VMOVDQU   (R9), Y3; \
	VPMOVZXWQ (R10), Y6

// STORE_STATE writes Y0-Y3 back to the group's state words.
#define STORE_STATE \
	VMOVDQU Y0, (SI); \
	VMOVDQU Y1, (DI); \
	VMOVDQU Y2, (R8); \
	VMOVDQU Y3, (R9)

// INVERT sets Y11 to the smallest k with mant < t[k] for the mantissas
// in Y10: the guide entry guide[mant >> GuideShift] (a VPGATHERQD of
// uint32s), then gathers of t[k] until no lane advances — each lane
// stops at the same k the scalar scan does. Clobbers Y5 and Y7; Y15
// holds all ones.
#define INVERT(scan, done) \
	VPSRLQ     $const_GuideShift, Y10, Y5; \
	VPCMPEQQ   Y7, Y7, Y7; \
	VPGATHERQD X7, (R13)(Y5*4), X11; \
	VPMOVZXDQ  X11, Y11; \
scan: \
	VPCMPEQQ   Y7, Y7, Y7; \
	VPGATHERQQ Y7, (R12)(Y11*8), Y5; \
	VPCMPGTQ   Y10, Y5, Y5; \
	VMOVMSKPD  Y5, AX; \
	CMPQ       AX, $15; \
	JEQ        done; \
	VPSUBQ     Y15, Y11, Y11; \
	VPADDQ     Y5, Y11, Y11; \
	JMP        scan; \
done:

// STORE_COUNTS packs the counts in Y11 to uint16 and stores them over
// the group's stored counts. Clobbers Y14.
#define STORE_COUNTS \
	VPERMD    Y11, Y13, Y14; \
	VPACKUSDW X14, X14, X14; \
	VMOVQ     X14, (R10)

// ACCUMULATE ors the sign masks of up and down into DX and BX at bit CX,
// then moves every pointer to the next group.
#define ACCUMULATE(up, down) \
	VMOVMSKPD up, AX; \
	SHLQ      CX, AX; \
	ORQ       AX, DX; \
	VMOVMSKPD down, AX; \
	SHLQ      CX, AX; \
	ORQ       AX, BX; \
	ADDQ      $32, SI; \
	ADDQ      $32, DI; \
	ADDQ      $32, R8; \
	ADDQ      $32, R9; \
	ADDQ      $8, R10; \
	ADDQ      $4, CX

// SETUP clears the bit position and both masks and loads the
// constants: Y12 zero, Y13 the pack permutation, Y15 all ones.
#define SETUP \
	XORQ     CX, CX; \
	XORQ     DX, DX; \
	XORQ     BX, BX; \
	VPXOR    Y12, Y12, Y12; \
	VMOVDQU  trendLowDwords<>(SB), Y13; \
	VPCMPEQQ Y15, Y15, Y15

// func trendGroupsFET(s0, s1, s2, s3 *uint64, prev *uint16, n int, t *uint64, guide *uint32) (up, down uint64)
//
// Per group: the compared draw's mantissa (Y4) against t[p] (Y8, full
// gather) and t[p−1] (Y9, gathered only where p > 0, so t[−1] is never
// read; other lanes keep 0, which no mantissa is below), then the
// stored draw's mantissa (Y10) inverted into the counts.
TEXT ·trendGroupsFET(SB), NOSPLIT, $0-80
	MOVQ     s0+0(FP), SI
	MOVQ     s1+8(FP), DI
	MOVQ     s2+16(FP), R8
	MOVQ     s3+24(FP), R9
	MOVQ     prev+32(FP), R10
	MOVQ     n+40(FP), R11
	MOVQ     t+48(FP), R12
	MOVQ     guide+56(FP), R13
	SETUP
	TESTQ R11, R11
	JLE   fetDone

fetLoop:
	LOAD_GROUP
	XOSHIRO_OUT(Y1, Y4, Y5)
	XOSHIRO_STEP(Y0, Y1, Y2, Y3, Y5)
	XOSHIRO_OUT(Y1, Y10, Y5)
	XOSHIRO_STEP(Y0, Y1, Y2, Y3, Y5)
	STORE_STATE
	VPSRLQ $11, Y4, Y4
	VPSRLQ $11, Y10, Y10

	// up = mant ≥ t[p] = ¬(t[p] > mant); down = t[p−1] > mant.
	VPCMPEQQ   Y7, Y7, Y7
	VPGATHERQQ Y7, (R12)(Y6*8), Y8
	VPCMPGTQ   Y12, Y6, Y7
	VPXOR      Y9, Y9, Y9
	VPGATHERQQ Y7, -8(R12)(Y6*8), Y9
	VPCMPGTQ   Y4, Y8, Y8
	VPXOR      Y15, Y8, Y8
	VPCMPGTQ   Y4, Y9, Y9

	INVERT(fetScan, fetScanned)
	STORE_COUNTS
	ACCUMULATE(Y8, Y9)
	CMPQ CX, R11
	JLT  fetLoop

fetDone:
	MOVQ DX, up+64(FP)
	MOVQ BX, down+72(FP)
	VZEROUPPER
	RET

// func trendGroupsSimple(s0, s1, s2, s3 *uint64, prev *uint16, n int, t *uint64, guide *uint32) (up, down uint64)
//
// Per group: the single draw's mantissa (Y10) inverted into k (Y11),
// then up = k > p, down = p > k against the old counts in Y6.
TEXT ·trendGroupsSimple(SB), NOSPLIT, $0-80
	MOVQ     s0+0(FP), SI
	MOVQ     s1+8(FP), DI
	MOVQ     s2+16(FP), R8
	MOVQ     s3+24(FP), R9
	MOVQ     prev+32(FP), R10
	MOVQ     n+40(FP), R11
	MOVQ     t+48(FP), R12
	MOVQ     guide+56(FP), R13
	SETUP
	TESTQ R11, R11
	JLE   simpleDone

simpleLoop:
	LOAD_GROUP
	XOSHIRO_OUT(Y1, Y10, Y5)
	XOSHIRO_STEP(Y0, Y1, Y2, Y3, Y5)
	STORE_STATE
	VPSRLQ $11, Y10, Y10

	INVERT(simpleScan, simpleScanned)
	VPCMPGTQ Y6, Y11, Y8
	VPCMPGTQ Y11, Y6, Y9
	STORE_COUNTS
	ACCUMULATE(Y8, Y9)
	CMPQ CX, R11
	JLT  simpleLoop

simpleDone:
	MOVQ DX, up+64(FP)
	MOVQ BX, down+72(FP)
	VZEROUPPER
	RET

DATA rowOne<>+0(SB)/8, $1
DATA rowOne<>+8(SB)/8, $1
DATA rowOne<>+16(SB)/8, $1
DATA rowOne<>+24(SB)/8, $1
GLOBL rowOne<>(SB), RODATA|NOPTR, $32

// ROW_BIT adds to acc the bit of row that the outputs x select:
// (row >> (x >> shift)) & 1, the shift count read from (AX). Like Go's
// shifts, VPSRLVQ yields 0 for an index of 64 or more.
#define ROW_BIT(x, row, acc) \
	VPSRLQ  (AX), x, x; \
	VPSRLVQ x, row, x; \
	VPAND   rowOne<>(SB), x, x; \
	VPADDQ  x, acc, acc

// func countRowGroups(s0, s1, s2, s3, rows *uint64, counts *int32, chunks int, shift *[2]uint64, m, blocks int)
//
// Per 8-stream chunk, two 4-stream groups A and B step side by side so
// each group's dependency chain hides the other's latency:
//
//	Y0-Y3 / Y8-Y11   state words s0..s3
//	Y4 / Y12         packed rows
//	Y5 / Y13         block counts
//	Y6-Y7 / Y14-Y15  temporaries
//
// SI, DI, R8 and R9 walk the state words and R10 the rows (8 bytes a
// stream), R11 the chunk's counts (4 bytes a stream, block b at b·256)
// and R14 the current block's.
TEXT ·countRowGroups(SB), NOSPLIT, $0-80
	MOVQ s0+0(FP), SI
	MOVQ s1+8(FP), DI
	MOVQ s2+16(FP), R8
	MOVQ s3+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ counts+40(FP), R11
	MOVQ chunks+48(FP), BX
	MOVQ shift+56(FP), AX
	MOVQ m+64(FP), R12
	MOVQ blocks+72(FP), R13

rowChunk:
	VMOVDQU 0(SI), Y0
	VMOVDQU 0(DI), Y1
	VMOVDQU 0(R8), Y2
	VMOVDQU 0(R9), Y3
	VMOVDQU 32(SI), Y8
	VMOVDQU 32(DI), Y9
	VMOVDQU 32(R8), Y10
	VMOVDQU 32(R9), Y11
	VMOVDQU 0(R10), Y4
	VMOVDQU 32(R10), Y12
	MOVQ    R11, R14
	MOVQ    R13, CX

rowBlock:
	VPXOR Y5, Y5, Y5
	VPXOR Y13, Y13, Y13
	MOVQ  R12, DX

rowDraw:
	XOSHIRO_OUT(Y1, Y6, Y7)
	XOSHIRO_OUT(Y9, Y14, Y15)
	ROW_BIT(Y6, Y4, Y5)
	ROW_BIT(Y14, Y12, Y13)
	XOSHIRO_STEP(Y0, Y1, Y2, Y3, Y7)
	XOSHIRO_STEP(Y8, Y9, Y10, Y11, Y15)
	DECQ DX
	JNZ  rowDraw

	// Narrow the eight 64-bit counts to int32 (every count is at most
	// m < 2^31) and store them.
	VMOVDQU trendLowDwords<>(SB), Y7
	VPERMD  Y5, Y7, Y6
	VPERMD  Y13, Y7, Y14
	VMOVDQU X6, 0(R14)
	VMOVDQU X14, 16(R14)
	ADDQ    $256, R14
	DECQ    CX
	JNZ     rowBlock

	VMOVDQU Y0, 0(SI)
	VMOVDQU Y1, 0(DI)
	VMOVDQU Y2, 0(R8)
	VMOVDQU Y3, 0(R9)
	VMOVDQU Y8, 32(SI)
	VMOVDQU Y9, 32(DI)
	VMOVDQU Y10, 32(R8)
	VMOVDQU Y11, 32(R9)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $32, R11
	DECQ    BX
	JNZ     rowChunk

	VZEROUPPER
	RET

// Streams.Seed's kernel constants: SplitMix64's increment and its two
// mixer multipliers, StreamSeed's streamMul times 4 in every lane (k's
// step from one group to the next) and the lane offsets 0..3 · streamMul.
DATA seedGamma<>+0(SB)/8, $0x9e3779b97f4a7c15
GLOBL seedGamma<>(SB), RODATA|NOPTR, $8
DATA seedMul1<>+0(SB)/8, $0xbf58476d1ce4e5b9
GLOBL seedMul1<>(SB), RODATA|NOPTR, $8
DATA seedMul2<>+0(SB)/8, $0x94d049bb133111eb
GLOBL seedMul2<>(SB), RODATA|NOPTR, $8
DATA seedKStep<>+0(SB)/8, $0x44d0950f7a0bbe54
DATA seedKStep<>+8(SB)/8, $0x44d0950f7a0bbe54
DATA seedKStep<>+16(SB)/8, $0x44d0950f7a0bbe54
DATA seedKStep<>+24(SB)/8, $0x44d0950f7a0bbe54
GLOBL seedKStep<>(SB), RODATA|NOPTR, $32
DATA seedLanes<>+0(SB)/8, $0
DATA seedLanes<>+8(SB)/8, $0xd1342543de82ef95
DATA seedLanes<>+16(SB)/8, $0xa2684a87bd05df2a
DATA seedLanes<>+24(SB)/8, $0x739c6fcb9b88cebf
GLOBL seedLanes<>(SB), RODATA|NOPTR, $32

// MUL64 sets z = z·c mod 2^64 for the constant c whose low dword is in
// clo and high dword in the low dword of chi: al·cl + ((ah·cl + al·ch)
// << 32), three VPMULUDQs.
#define MUL64(z, clo, chi, t1, t2) \
	VPSRLQ   $32, z, t1; \
	VPMULUDQ clo, t1, t1; \
	VPMULUDQ chi, z, t2; \
	VPADDQ   t2, t1, t1; \
	VPSLLQ   $32, t1, t1; \
	VPMULUDQ clo, z, z; \
	VPADDQ   t1, z, z

// SPLITMIX_MIX applies SplitMix64's output mixer to z in place:
// z ^= z>>30; z *= 0xbf58476d1ce4e5b9; z ^= z>>27; z *= 0x94d049bb133111eb;
// z ^= z>>31.
#define SPLITMIX_MIX(z, t1, t2) \
	VPSRLQ $30, z, t1; \
	VPXOR  t1, z, z; \
	MUL64(z, Y14, Y13, t1, t2); \
	VPSRLQ $27, z, t1; \
	VPXOR  t1, z, z; \
	MUL64(z, Y12, Y11, t1, t2); \
	VPSRLQ $31, z, t1; \
	VPXOR  t1, z, z

// func seedGroups(s0, s1, s2, s3 *uint64, prev *uint16, n int, h, k, bound uint64) (done int)
//
// Per 4-stream group at CX, lane i mixes in k + (CX+i)·streamMul (Y10,
// with k the caller's multiplier for stream 0): StreamSeed's second
// SplitMix64 step on h ^ k gives the seed, Reseed's four steps give the
// state words s0..s3 (Y0-Y3) and, when bound > 0, one xoshiro output x
// is drawn and Lemire's high word of x·bound stored as the count; with
// bound ≤ 2^16 that product is two 48-bit partial products, xl·bound
// and xh·bound. The loop is software-pipelined: each iteration mixes the
// next group's seed (Y7) beside its own state words, so the two
// dependency chains overlap.
//
// A group in which some lane's low word lies below 2^16 (a superset of
// Lemire's lo < bound, with probability about 2^−48) is not stored: the
// kernel returns the streams done before it, and the caller seeds it
// with the portable loop, which takes the rejection draws the kernel
// does not.
//
// Reseed's all-zero guard is not needed: SplitMix64's mixer is a
// bijection and its four inputs seed+γ, …, seed+4γ are distinct, so at
// most one state word is 0.
//
// Registers: Y0-Y3 state words, Y4-Y6 temporaries, Y7 the next seed,
// Y8 bound, Y9 h, Y10 k, Y11/Y12 the second multiplier's high/low
// dwords, Y13/Y14 the first's, Y15 γ; SI, DI, R8, R9 the group's state
// words, R10 its counts, R11 n, R12 bound, CX the streams done.
TEXT ·seedGroups(SB), NOSPLIT, $0-80
	MOVQ         s0+0(FP), SI
	MOVQ         s1+8(FP), DI
	MOVQ         s2+16(FP), R8
	MOVQ         s3+24(FP), R9
	MOVQ         prev+32(FP), R10
	MOVQ         n+40(FP), R11
	MOVQ         h+48(FP), AX
	MOVQ         AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ         k+56(FP), AX
	MOVQ         AX, X10
	VPBROADCASTQ X10, Y10
	VPADDQ       seedLanes<>(SB), Y10, Y10
	MOVQ         bound+64(FP), R12
	MOVQ         R12, X8
	VPBROADCASTQ X8, Y8
	VPBROADCASTQ seedGamma<>(SB), Y15
	VPBROADCASTQ seedMul1<>(SB), Y14
	VPSRLQ       $32, Y14, Y13
	VPBROADCASTQ seedMul2<>(SB), Y12
	VPSRLQ       $32, Y12, Y11
	XORQ         CX, CX
	CMPQ         CX, R11
	JGE          seedDone

	// The first group's seed; each iteration mixes the next one's.
	VPXOR  Y10, Y9, Y7
	VPADDQ Y15, Y7, Y7
	VPADDQ seedKStep<>(SB), Y10, Y10
	SPLITMIX_MIX(Y7, Y4, Y5)

seedLoop:
	// The state words mix seed + γ … seed + 4γ; the next seed is
	// mix(h ^ k + γ).
	VPADDQ Y15, Y7, Y0
	VPADDQ Y15, Y0, Y1
	VPADDQ Y15, Y1, Y2
	VPADDQ Y15, Y2, Y3
	VPXOR  Y10, Y9, Y7
	VPADDQ Y15, Y7, Y7
	VPADDQ seedKStep<>(SB), Y10, Y10
	SPLITMIX_MIX(Y7, Y4, Y5)
	SPLITMIX_MIX(Y0, Y4, Y5)
	SPLITMIX_MIX(Y1, Y5, Y6)
	SPLITMIX_MIX(Y2, Y4, Y5)
	SPLITMIX_MIX(Y3, Y5, Y6)
	TESTQ  R12, R12
	JZ     seedStore

	// x = one output; lo = (xh·b << 32) + xl·b, hi = (xh·b + xl·b>>32) >> 32.
	XOSHIRO_OUT(Y1, Y4, Y5)
	VPMULUDQ  Y8, Y4, Y5
	VPSRLQ    $32, Y4, Y4
	VPMULUDQ  Y8, Y4, Y4
	VPSRLQ    $32, Y5, Y6
	VPADDQ    Y4, Y6, Y6
	VPSRLQ    $32, Y6, Y6
	VPSLLQ    $32, Y4, Y4
	VPADDQ    Y5, Y4, Y4
	VPSRLQ    $16, Y4, Y4
	VPXOR     Y5, Y5, Y5
	VPCMPEQQ  Y5, Y4, Y4
	VMOVMSKPD Y4, AX
	TESTQ     AX, AX
	JNZ       seedDone
	XOSHIRO_STEP(Y0, Y1, Y2, Y3, Y5)
	VMOVDQU   trendLowDwords<>(SB), Y5
	VPERMD    Y6, Y5, Y6
	VPACKUSDW X6, X6, X6
	VMOVQ     X6, (R10)
	ADDQ      $8, R10

seedStore:
	VMOVDQU Y0, (SI)
	VMOVDQU Y1, (DI)
	VMOVDQU Y2, (R8)
	VMOVDQU Y3, (R9)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $4, CX
	CMPQ    CX, R11
	JLT     seedLoop

seedDone:
	MOVQ CX, done+72(FP)
	VZEROUPPER
	RET
