#include "textflag.h"

// func packRowGroups(adj *int32, words, rows *uint64, n, deg int)
//
// Per group of 4 neighbor indices a (one row holds deg/4 groups):
// VPGATHERDQ loads the bitset words a >> 6, VPSLLVQ shifts each left by
// ^a & 63 so the neighbor's bit lands in the sign, and VMOVMSKPD packs
// the 4 signs into row bits j..j+3.
//
// Registers:
//
//	SI, DI, R8  adj cursor, bitset words, rows cursor
//	R9, R10     rows left, degree
//	AX, CX, DX  the row being packed, its next bit j, a group's 4 bits
//	Y14, Y15    63 in every lane, all ones (the gather mask)
TEXT ·packRowGroups(SB), NOSPLIT, $0-40
	MOVQ adj+0(FP), SI
	MOVQ words+8(FP), DI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ deg+32(FP), R10
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $58, Y15, Y14

row:
	XORQ AX, AX
	XORQ CX, CX

group:
	VMOVDQU    (SI), X0
	VPSRLD     $6, X0, X1
	VPMOVZXDQ  X0, Y2
	VPANDN     Y14, Y2, Y2
	VMOVDQU    Y15, Y3
	VPXOR      Y4, Y4, Y4
	VPGATHERDQ Y3, (DI)(X1*8), Y4
	VPSLLVQ    Y2, Y4, Y4
	VMOVMSKPD  Y4, DX
	SHLQ       CX, DX
	ORQ        DX, AX
	ADDQ       $16, SI
	ADDQ       $4, CX
	CMPQ       CX, R10
	JB         group

	MOVQ AX, (R8)
	ADDQ $8, R8
	DECQ R9
	JNZ  row

	VZEROUPPER
	RET
