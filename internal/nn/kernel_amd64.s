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

// lastmask<> holds the VMASKMOVPD mask of a partial chunk's last 4-lane
// group, indexed by the lane count mod 4 (32 bytes at (n&3)*32): all four
// lanes for 0, else the first n&3.
DATA lastmask<>+0(SB)/8, $-1
DATA lastmask<>+8(SB)/8, $-1
DATA lastmask<>+16(SB)/8, $-1
DATA lastmask<>+24(SB)/8, $-1
DATA lastmask<>+32(SB)/8, $-1
DATA lastmask<>+40(SB)/8, $0
DATA lastmask<>+48(SB)/8, $0
DATA lastmask<>+56(SB)/8, $0
DATA lastmask<>+64(SB)/8, $-1
DATA lastmask<>+72(SB)/8, $-1
DATA lastmask<>+80(SB)/8, $0
DATA lastmask<>+88(SB)/8, $0
DATA lastmask<>+96(SB)/8, $-1
DATA lastmask<>+104(SB)/8, $-1
DATA lastmask<>+112(SB)/8, $-1
DATA lastmask<>+120(SB)/8, $0
GLOBL lastmask<>(SB), RODATA|NOPTR, $128

// Both backward kernels take the lanes in chunks of 16, four YMM registers
// of four lanes each, and then the partial chunk of the last n mod 16
// lanes, if any: up to four groups, the last of which runs under the mask
// Y15 from lastmask<>. Masked-off lanes load as zero and are never stored.
// Each register adds a product with one VMULPD and one VADDPD whose first
// addend is the accumulator, so each lane rounds as MULSD then ADDSD
// would. A fused multiply-add would round once and change the result.

// func gradInputAVX(b, w, z, s *float64, units, gates, ld, n int)
//
// A chunk holds its b sums in Y4..Y7 and walks the rows, r = g*units+u
// u-major and gate by gate within a unit; a row whose s[r] is ±0 is
// skipped. For the others Y8 holds z[r] broadcast and each group adds z*w.
TEXT ·gradInputAVX(SB), NOSPLIT, $0-64
	MOVQ    b+0(FP), SI
	MOVQ    w+8(FP), DX
	MOVQ    z+16(FP), R8
	MOVQ    s+24(FP), R9
	MOVQ    units+32(FP), R10
	MOVQ    gates+40(FP), R11
	MOVQ    ld+48(FP), R12
	MOVQ    n+56(FP), R13 // lanes left
	SHLQ    $3, R12       // row stride in bytes
	MOVQ    R13, AX
	ANDQ    $3, AX
	SHLQ    $5, AX
	LEAQ    lastmask<>(SB), CX
	VMOVUPD (CX)(AX*1), Y15

full:
	CMPQ    R13, $16
	JLT     partial
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	XORQ    R15, R15 // u

funit:
	MOVQ R15, AX // r = u
	MOVQ R11, CX // gates left in this unit

fgate:
	MOVQ         (R9)(AX*8), R14
	SHLQ         $1, R14           // drops the sign bit: zero iff s[r] is ±0
	JEQ          fnext
	VBROADCASTSD (R8)(AX*8), Y8
	MOVQ         AX, R14
	IMULQ        R12, R14          // byte offset of row r
	VMULPD       0(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       32(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y5, Y5
	VMULPD       64(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       96(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y7, Y7

fnext:
	ADDQ R10, AX
	DECQ CX
	JNZ  fgate
	INCQ R15
	CMPQ R15, R10
	JLT  funit

	VMOVUPD Y4, 0(SI)
	VMOVUPD Y5, 32(SI)
	VMOVUPD Y6, 64(SI)
	VMOVUPD Y7, 96(SI)
	SUBQ    $16, R13
	ADDQ    $128, DX
	ADDQ    $128, SI
	JMP     full

partial:
	// R13 lanes, 0 to 15: groups 0 to (R13-1)/4, the last masked.
	TESTQ      R13, R13
	JEQ        done
	CMPQ       R13, $4
	JLE        pload0
	VMOVUPD    0(SI), Y4
	CMPQ       R13, $8
	JLE        pload1
	VMOVUPD    32(SI), Y5
	CMPQ       R13, $12
	JLE        pload2
	VMOVUPD    64(SI), Y6
	VMASKMOVPD 96(SI), Y15, Y7
	JMP        prows

pload0:
	VMASKMOVPD 0(SI), Y15, Y4
	JMP        prows

pload1:
	VMASKMOVPD 32(SI), Y15, Y5
	JMP        prows

pload2:
	VMASKMOVPD 64(SI), Y15, Y6

prows:
	XORQ R15, R15

punit:
	MOVQ R15, AX
	MOVQ R11, CX

pgate:
	MOVQ         (R9)(AX*8), R14
	SHLQ         $1, R14
	JEQ          pnext
	VBROADCASTSD (R8)(AX*8), Y8
	MOVQ         AX, R14
	IMULQ        R12, R14
	CMPQ         R13, $4
	JLE          pmul0
	VMULPD       0(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y4, Y4
	CMPQ         R13, $8
	JLE          pmul1
	VMULPD       32(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y5, Y5
	CMPQ         R13, $12
	JLE          pmul2
	VMULPD       64(DX)(R14*1), Y8, Y11
	VADDPD       Y11, Y6, Y6
	VMASKMOVPD   96(DX)(R14*1), Y15, Y11
	VMULPD       Y11, Y8, Y11
	VADDPD       Y11, Y7, Y7
	JMP          pnext

pmul0:
	VMASKMOVPD 0(DX)(R14*1), Y15, Y11
	VMULPD     Y11, Y8, Y11
	VADDPD     Y11, Y4, Y4
	JMP        pnext

pmul1:
	VMASKMOVPD 32(DX)(R14*1), Y15, Y11
	VMULPD     Y11, Y8, Y11
	VADDPD     Y11, Y5, Y5
	JMP        pnext

pmul2:
	VMASKMOVPD 64(DX)(R14*1), Y15, Y11
	VMULPD     Y11, Y8, Y11
	VADDPD     Y11, Y6, Y6

pnext:
	ADDQ R10, AX
	DECQ CX
	JNZ  pgate
	INCQ R15
	CMPQ R15, R10
	JLT  punit

	CMPQ       R13, $4
	JLE        pstore0
	VMOVUPD    Y4, 0(SI)
	CMPQ       R13, $8
	JLE        pstore1
	VMOVUPD    Y5, 32(SI)
	CMPQ       R13, $12
	JLE        pstore2
	VMOVUPD    Y6, 64(SI)
	VMASKMOVPD Y7, Y15, 96(SI)
	JMP        done

pstore0:
	VMASKMOVPD Y4, Y15, 0(SI)
	JMP        done

pstore1:
	VMASKMOVPD Y5, Y15, 32(SI)
	JMP        done

pstore2:
	VMASKMOVPD Y6, Y15, 64(SI)

done:
	VZEROUPPER
	RET

// func commitRowsAVX(a, z, s, x *float64, rows, ld, n, k int)
//
// Row by row, a chunk holds the row's elements of a in Y0..Y3 across all
// k steps. Step i reads z and s at i*rows+r and x at i*n; a step whose s
// is ±0 is skipped. For the others Y8 holds z broadcast and each group
// adds z*x.
TEXT ·commitRowsAVX(SB), NOSPLIT, $0-64
	MOVQ    a+0(FP), DI
	MOVQ    z+8(FP), R8
	MOVQ    s+16(FP), R9
	MOVQ    x+24(FP), BX
	MOVQ    rows+32(FP), R10
	MOVQ    ld+40(FP), R12
	MOVQ    n+48(FP), R13
	MOVQ    k+56(FP), R11
	SHLQ    $3, R12           // row stride in bytes
	MOVQ    R10, DX           // rows left
	IMULQ   R10, R11
	SHLQ    $3, R11           // end of the z and s walk, in bytes
	MOVQ    R13, AX
	ANDQ    $3, AX
	SHLQ    $5, AX
	LEAQ    lastmask<>(SB), CX
	VMOVUPD (CX)(AX*1), Y15

row:
	XORQ SI, SI   // the chunk's byte offset in the row and in x
	MOVQ R13, R14 // lanes left in the row

full:
	CMPQ    R14, $16
	JLT     partial
	VMOVUPD 0(DI)(SI*1), Y0
	VMOVUPD 32(DI)(SI*1), Y1
	VMOVUPD 64(DI)(SI*1), Y2
	VMOVUPD 96(DI)(SI*1), Y3
	XORQ    AX, AX          // byte offset of step i's z and s
	LEAQ    (BX)(SI*1), R15 // step i's x at the chunk

fstep:
	MOVQ         (R9)(AX*1), CX
	SHLQ         $1, CX              // drops the sign bit: zero iff s is ±0
	JEQ          fskip
	VBROADCASTSD (R8)(AX*1), Y8
	VMULPD       0(R15), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R15), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R15), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R15), Y8, Y12
	VADDPD       Y12, Y3, Y3

fskip:
	LEAQ (R15)(R13*8), R15
	LEAQ (AX)(R10*8), AX
	CMPQ AX, R11
	JLT  fstep

	VMOVUPD Y0, 0(DI)(SI*1)
	VMOVUPD Y1, 32(DI)(SI*1)
	VMOVUPD Y2, 64(DI)(SI*1)
	VMOVUPD Y3, 96(DI)(SI*1)
	SUBQ    $16, R14
	ADDQ    $128, SI
	JMP     full

partial:
	// R14 lanes, 0 to 15: groups 0 to (R14-1)/4, the last masked.
	TESTQ      R14, R14
	JEQ        rowdone
	CMPQ       R14, $4
	JLE        pload0
	VMOVUPD    0(DI)(SI*1), Y0
	CMPQ       R14, $8
	JLE        pload1
	VMOVUPD    32(DI)(SI*1), Y1
	CMPQ       R14, $12
	JLE        pload2
	VMOVUPD    64(DI)(SI*1), Y2
	VMASKMOVPD 96(DI)(SI*1), Y15, Y3
	JMP        psteps

pload0:
	VMASKMOVPD 0(DI)(SI*1), Y15, Y0
	JMP        psteps

pload1:
	VMASKMOVPD 32(DI)(SI*1), Y15, Y1
	JMP        psteps

pload2:
	VMASKMOVPD 64(DI)(SI*1), Y15, Y2

psteps:
	XORQ AX, AX
	LEAQ (BX)(SI*1), R15

pstep:
	MOVQ         (R9)(AX*1), CX
	SHLQ         $1, CX
	JEQ          pskip
	VBROADCASTSD (R8)(AX*1), Y8
	CMPQ         R14, $4
	JLE          pmul0
	VMULPD       0(R15), Y8, Y9
	VADDPD       Y9, Y0, Y0
	CMPQ         R14, $8
	JLE          pmul1
	VMULPD       32(R15), Y8, Y10
	VADDPD       Y10, Y1, Y1
	CMPQ         R14, $12
	JLE          pmul2
	VMULPD       64(R15), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMASKMOVPD   96(R15), Y15, Y12
	VMULPD       Y12, Y8, Y12
	VADDPD       Y12, Y3, Y3
	JMP          pskip

pmul0:
	VMASKMOVPD 0(R15), Y15, Y9
	VMULPD     Y9, Y8, Y9
	VADDPD     Y9, Y0, Y0
	JMP        pskip

pmul1:
	VMASKMOVPD 32(R15), Y15, Y10
	VMULPD     Y10, Y8, Y10
	VADDPD     Y10, Y1, Y1
	JMP        pskip

pmul2:
	VMASKMOVPD 64(R15), Y15, Y11
	VMULPD     Y11, Y8, Y11
	VADDPD     Y11, Y2, Y2

pskip:
	LEAQ (R15)(R13*8), R15
	LEAQ (AX)(R10*8), AX
	CMPQ AX, R11
	JLT  pstep

	CMPQ       R14, $4
	JLE        pstore0
	VMOVUPD    Y0, 0(DI)(SI*1)
	CMPQ       R14, $8
	JLE        pstore1
	VMOVUPD    Y1, 32(DI)(SI*1)
	CMPQ       R14, $12
	JLE        pstore2
	VMOVUPD    Y2, 64(DI)(SI*1)
	VMASKMOVPD Y3, Y15, 96(DI)(SI*1)
	JMP        rowdone

pstore0:
	VMASKMOVPD Y0, Y15, 0(DI)(SI*1)
	JMP        rowdone

pstore1:
	VMASKMOVPD Y1, Y15, 32(DI)(SI*1)
	JMP        rowdone

pstore2:
	VMASKMOVPD Y2, Y15, 64(DI)(SI*1)

rowdone:
	ADDQ R12, DI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ DX
	JNZ  row
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
