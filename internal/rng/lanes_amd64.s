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

DATA lanesOne<>+0(SB)/8, $1
DATA lanesOne<>+8(SB)/8, $1
DATA lanesOne<>+16(SB)/8, $1
DATA lanesOne<>+24(SB)/8, $1
GLOBL lanesOne<>(SB), RODATA|NOPTR, $32

// func countLanesBlock(st *laneState, m int)
//
// Two 4-lane groups, A (lanes 0-3) and B (lanes 4-7), step in
// interleaved instruction pairs so each group's dependency chain hides
// the other's latency. Per group:
//
//	Y0-Y3 / Y8-Y11   state words s0..s3
//	Y4 / Y12         packed rows
//	Y5 / Y13         block counts
//	Y6-Y7 / Y14-Y15  temporaries
//
// One output is x = rotl(s1*5, 7)*9 with the multiplies as shift+add
// and the rotation as shift/shift/or; its bit is (row >> (x >> shift))
// & 1 through VPSRLVQ, which, like Go's shifts, yields 0 for an index
// of 64 or more.
TEXT ·countLanesBlock(SB), NOSPLIT, $0-16
	MOVQ st+0(FP), DI
	MOVQ m+8(FP), CX
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y8
	VMOVDQU 64(DI), Y1
	VMOVDQU 96(DI), Y9
	VMOVDQU 128(DI), Y2
	VMOVDQU 160(DI), Y10
	VMOVDQU 192(DI), Y3
	VMOVDQU 224(DI), Y11
	VMOVDQU 256(DI), Y4
	VMOVDQU 288(DI), Y12
	VPXOR   Y5, Y5, Y5
	VPXOR   Y13, Y13, Y13
	TESTQ   CX, CX
	JLE     done

loop:
	// x = rotl(s1*5, 7) * 9
	VPSLLQ  $2, Y1, Y6
	VPSLLQ  $2, Y9, Y14
	VPADDQ  Y1, Y6, Y6
	VPADDQ  Y9, Y14, Y14
	VPSLLQ  $7, Y6, Y7
	VPSLLQ  $7, Y14, Y15
	VPSRLQ  $57, Y6, Y6
	VPSRLQ  $57, Y14, Y14
	VPOR    Y7, Y6, Y6
	VPOR    Y15, Y14, Y14
	VPSLLQ  $3, Y6, Y7
	VPSLLQ  $3, Y14, Y15
	VPADDQ  Y7, Y6, Y6
	VPADDQ  Y15, Y14, Y14

	// count += row >> (x >> shift) & 1
	VPSRLQ  320(DI), Y6, Y6
	VPSRLQ  320(DI), Y14, Y14
	VPSRLVQ Y6, Y4, Y6
	VPSRLVQ Y14, Y12, Y14
	VPAND   lanesOne<>(SB), Y6, Y6
	VPAND   lanesOne<>(SB), Y14, Y14
	VPADDQ  Y6, Y5, Y5
	VPADDQ  Y14, Y13, Y13

	// t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t;
	// s3 = rotl(s3, 45)
	VPSLLQ  $17, Y1, Y6
	VPSLLQ  $17, Y9, Y14
	VPXOR   Y0, Y2, Y2
	VPXOR   Y8, Y10, Y10
	VPXOR   Y1, Y3, Y3
	VPXOR   Y9, Y11, Y11
	VPXOR   Y2, Y1, Y1
	VPXOR   Y10, Y9, Y9
	VPXOR   Y3, Y0, Y0
	VPXOR   Y11, Y8, Y8
	VPXOR   Y6, Y2, Y2
	VPXOR   Y14, Y10, Y10
	VPSLLQ  $45, Y3, Y7
	VPSLLQ  $45, Y11, Y15
	VPSRLQ  $19, Y3, Y3
	VPSRLQ  $19, Y11, Y11
	VPOR    Y7, Y3, Y3
	VPOR    Y15, Y11, Y11

	DECQ CX
	JNZ  loop

done:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y8, 32(DI)
	VMOVDQU Y1, 64(DI)
	VMOVDQU Y9, 96(DI)
	VMOVDQU Y2, 128(DI)
	VMOVDQU Y10, 160(DI)
	VMOVDQU Y3, 192(DI)
	VMOVDQU Y11, 224(DI)
	VMOVDQU Y5, 336(DI)
	VMOVDQU Y13, 368(DI)
	VZEROUPPER
	RET
