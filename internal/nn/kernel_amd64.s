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
