#include "textflag.h"

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

// XOSHIRO_OUT sets dst = rotl(s1*5, 7) * 9 with the multiplies as
// shift+add and the rotation as shift/shift/or, as countLanesBlock.
#define XOSHIRO_OUT(dst, tmp) \
	VPSLLQ $2, Y1, dst; \
	VPADDQ Y1, dst, dst; \
	VPSLLQ $7, dst, tmp; \
	VPSRLQ $57, dst, dst; \
	VPOR   tmp, dst, dst; \
	VPSLLQ $3, dst, tmp; \
	VPADDQ tmp, dst, dst

// XOSHIRO_STEP advances Y0-Y3 one state transition: t = s1 << 17;
// s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl(s3, 45).
#define XOSHIRO_STEP(tmp) \
	VPSLLQ $17, Y1, tmp; \
	VPXOR  Y0, Y2, Y2; \
	VPXOR  Y1, Y3, Y3; \
	VPXOR  Y2, Y1, Y1; \
	VPXOR  Y3, Y0, Y0; \
	VPXOR  tmp, Y2, Y2; \
	VPSLLQ $45, Y3, tmp; \
	VPSRLQ $19, Y3, Y3; \
	VPOR   tmp, Y3, Y3

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
// in Y10: the guide entry guide[mant >> 45] (a VPGATHERQD of uint32s), then
// gathers of t[k] until no lane advances — each lane stops at the same
// k the scalar scan does. Clobbers Y5 and Y7; Y15 holds all ones.
#define INVERT(scan, done) \
	VPSRLQ     $45, Y10, Y5; \
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
	XOSHIRO_OUT(Y4, Y5)
	XOSHIRO_STEP(Y5)
	XOSHIRO_OUT(Y10, Y5)
	XOSHIRO_STEP(Y5)
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
	XOSHIRO_OUT(Y10, Y5)
	XOSHIRO_STEP(Y5)
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
