#include "textflag.h"

// func gemvBlocksAVX(y, init, p, x *float64, k, nb int)
//
// Y0..Y3 hold the 16 sums of one block, four rows each. Step j broadcasts
// x[j] and adds the product with the block's j-th 16 weights, one VMULPD
// and one VADDPD per register, so each lane rounds as MULSD then ADDSD
// would. A fused multiply-add would round once and change the result.
TEXT ·gemvBlocksAVX(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ init+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ x+24(FP), BX
	MOVQ k+32(FP), CX
	MOVQ nb+40(FP), R8
	TESTQ R8, R8
	JEQ  done

block:
	TESTQ SI, SI
	JEQ   zero
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	ADDQ    $128, SI
	JMP     steps

zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

steps:
	MOVQ  BX, R9
	MOVQ  CX, R10
	TESTQ R10, R10
	JEQ   store

step:
	VBROADCASTSD (R9), Y4
	VMULPD       0(DX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(DX), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(DX), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(DX), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R9
	ADDQ         $128, DX
	DECQ         R10
	JNZ          step

store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	DECQ    R8
	JNZ     block
	VZEROUPPER

done:
	RET

// func accumRowsAVX(a, b, w, x, z, s *float64, units, gates, ld, n int)
//
// n is a positive multiple of 4. The lanes run in chunks of up to 16:
// Y0..Y3 hold the chunk's x and Y4..Y7 its b sums, four lanes each. Row
// r = g*units+u is walked u-major, gate by gate within a unit; a row whose
// s[r] is ±0 is skipped. For the others Y8 holds z[r] broadcast, and each
// of the chunk's registers adds z*x to the row of a and z*w to its b sums,
// each with one VMULPD and one VADDPD whose first addend is the
// accumulator, so each lane rounds as MULSD then ADDSD would. A fused
// multiply-add would round once and change the result.
TEXT ·accumRowsAVX(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ x+24(FP), BX
	MOVQ z+32(FP), R8
	MOVQ s+40(FP), R9
	MOVQ units+48(FP), R10
	MOVQ gates+56(FP), R11
	MOVQ ld+64(FP), R12
	MOVQ n+72(FP), R13
	SHLQ $3, R12           // row stride in bytes

chunk:
	// R13 counts the lanes left; this chunk takes min(R13, 16).
	VMOVUPD 0(BX), Y0
	VMOVUPD 0(SI), Y4
	CMPQ    R13, $4
	JLE     rows
	VMOVUPD 32(BX), Y1
	VMOVUPD 32(SI), Y5
	CMPQ    R13, $8
	JLE     rows
	VMOVUPD 64(BX), Y2
	VMOVUPD 64(SI), Y6
	CMPQ    R13, $12
	JLE     rows
	VMOVUPD 96(BX), Y3
	VMOVUPD 96(SI), Y7

rows:
	XORQ R15, R15 // u

unit:
	MOVQ R15, AX // r = u
	MOVQ R11, CX // gates left in this unit

gate:
	MOVQ         (R9)(AX*8), R14
	SHLQ         $1, R14           // drops the sign bit: zero iff s[r] is ±0
	JEQ          next
	VBROADCASTSD (R8)(AX*8), Y8
	MOVQ         AX, R14
	IMULQ        R12, R14          // byte offset of row r
	VMULPD       Y0, Y8, Y9
	VMOVUPD      0(DI)(R14*1), Y10
	VADDPD       Y9, Y10, Y10
	VMOVUPD      Y10, 0(DI)(R14*1)
	VMULPD       0(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y4, Y4
	CMPQ         R13, $4
	JLE          next
	VMULPD       Y1, Y8, Y9
	VMOVUPD      32(DI)(R14*1), Y10
	VADDPD       Y9, Y10, Y10
	VMOVUPD      Y10, 32(DI)(R14*1)
	VMULPD       32(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y5, Y5
	CMPQ         R13, $8
	JLE          next
	VMULPD       Y2, Y8, Y9
	VMOVUPD      64(DI)(R14*1), Y10
	VADDPD       Y9, Y10, Y10
	VMOVUPD      Y10, 64(DI)(R14*1)
	VMULPD       64(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y6, Y6
	CMPQ         R13, $12
	JLE          next
	VMULPD       Y3, Y8, Y9
	VMOVUPD      96(DI)(R14*1), Y10
	VADDPD       Y9, Y10, Y10
	VMOVUPD      Y10, 96(DI)(R14*1)
	VMULPD       96(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y7, Y7

next:
	ADDQ R10, AX
	DECQ CX
	JNZ  gate
	INCQ R15
	CMPQ R15, R10
	JLT  unit

	VMOVUPD Y4, 0(SI)
	CMPQ    R13, $4
	JLE     stored
	VMOVUPD Y5, 32(SI)
	CMPQ    R13, $8
	JLE     stored
	VMOVUPD Y6, 64(SI)
	CMPQ    R13, $12
	JLE     stored
	VMOVUPD Y7, 96(SI)

stored:
	SUBQ $16, R13
	JLE  rowsdone
	ADDQ $128, DI
	ADDQ $128, DX
	ADDQ $128, BX
	ADDQ $128, SI
	JMP  chunk

rowsdone:
	VZEROUPPER
	RET

// func cpuid(leaf uint32) (eax, ebx, ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-20
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
