#include "textflag.h"

// Sigmoid and Tanh, four float64 lanes per YMM register. EXP4 replays the
// avxfma branch of math.Exp ($GOROOT/src/math/exp_amd64.s) with each
// scalar instruction widened to four lanes, so every lane rounds exactly
// as math.Exp does on a CPU where it takes that branch:
//
//	MULSD LOG2E; CVTSD2SL; CVTSL2SD      VMULPD; VCVTPD2DQY; VCVTDQ2PD
//	VFNMADD231SD LN2U, then LN2L         VFNMADD231PD LN2U, then LN2L
//	MULSD $0.0625                        VMULPD by 1/16
//	seven VFMADD213SD, 2.48e-5 ... 1.0   seven VFMADD213PD, same order
//	MULSD; three VADDSD 2 + MULSD        VMULPD; three VADDPD 2 + VMULPD
//	VADDSD 2; VFMADD213SD 1.0            VADDPD 2; VFMADD213PD 1.0
//	ADDL $0x3FF; SHLQ $52; MULSD         VPMOVSXDQ; VPADDQ; VPSLLQ $52; VMULPD
//
// math.Exp leaves that path for NaN, ±Inf, x > 709.78 (+Inf), a biased
// exponent k+0x3FF at or above 0x7FF (+Inf, even for finite results such
// as Exp(709.5)) and at or below 0 (its denormal and underflow exits).
// EXP4 admits a group only when every lane's k lies in [-1022, 1023];
// NaN, ±Inf and every x beyond ±2^31/log2e convert to the integer
// indefinite -2^31 and fall outside too. Otherwise it jumps to done
// without storing the group, and the caller computes it with the scalar
// functions.
//
// In: Y0 = argument. Out: Y0 = exp. Clobbers Y1-Y3. X14 must hold KMIN,
// four int32 -1022.
#define EXP4 \
	VMULPD       gateconst<>+LOG2E(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VPCMPGTD     gateconst<>+KMAX(SB), X2, X3; \
	VPCMPGTD     X2, X14, X1; \
	VPOR         X1, X3, X3; \
	VPTEST       X3, X3; \
	JNE          done; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD gateconst<>+LN2U(SB), Y1, Y0; \
	VFNMADD231PD gateconst<>+LN2L(SB), Y1, Y0; \
	VMULPD       gateconst<>+SIXTEENTH(SB), Y0, Y0; \
	VMOVUPD      gateconst<>+T8(SB), Y1; \
	VFMADD213PD  gateconst<>+T7(SB), Y0, Y1; \
	VFMADD213PD  gateconst<>+T6(SB), Y0, Y1; \
	VFMADD213PD  gateconst<>+T5(SB), Y0, Y1; \
	VFMADD213PD  gateconst<>+T4(SB), Y0, Y1; \
	VFMADD213PD  gateconst<>+T3(SB), Y0, Y1; \
	VFMADD213PD  gateconst<>+HALF(SB), Y0, Y1; \
	VFMADD213PD  gateconst<>+ONE(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       gateconst<>+TWO(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       gateconst<>+TWO(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       gateconst<>+TWO(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       gateconst<>+TWO(SB), Y0, Y1; \
	VFMADD213PD  gateconst<>+ONE(SB), Y1, Y0; \
	VPMOVSXDQ    X2, Y3; \
	VPADDQ       gateconst<>+BIAS(SB), Y3, Y3; \
	VPSLLQ       $52, Y3, Y3; \
	VMULPD       Y3, Y0, Y0

// Offsets into gateconst: every constant is four copies wide, so it can
// be a 256-bit memory operand (KMAX and KMIN are four int32s).
#define SIGN 0
#define ABS 32
#define LOG2E 64
#define LN2U 96
#define LN2L 128
#define SIXTEENTH 160
#define T8 192
#define T7 224
#define T6 256
#define T5 288
#define T4 320
#define T3 352
#define HALF 384
#define ONE 416
#define TWO 448
#define BIAS 480
#define P0 512
#define P1 544
#define P2 576
#define Q0 608
#define Q1 640
#define Q2 672
#define SMALL 704
#define LARGE 736
#define KMAX 768
#define KMIN 784

#define QUAD(off, v) \
	DATA gateconst<>+(off)(SB)/8, v; \
	DATA gateconst<>+(off+8)(SB)/8, v; \
	DATA gateconst<>+(off+16)(SB)/8, v; \
	DATA gateconst<>+(off+24)(SB)/8, v

QUAD(SIGN, $0x8000000000000000)
QUAD(ABS, $0x7FFFFFFFFFFFFFFF)
QUAD(LOG2E, $1.4426950408889634073599246810018920)
QUAD(LN2U, $0.69314718055966295651160180568695068359375)
QUAD(LN2L, $0.28235290563031577122588448175013436025525412068e-12)
QUAD(SIXTEENTH, $0.0625)
QUAD(T8, $2.4801587301587301587e-5)
QUAD(T7, $1.9841269841269841270e-4)
QUAD(T6, $1.3888888888888888889e-3)
QUAD(T5, $8.3333333333333333333e-3)
QUAD(T4, $4.1666666666666666667e-2)
QUAD(T3, $1.6666666666666666667e-1)
QUAD(HALF, $0.5)
QUAD(ONE, $1.0)
QUAD(TWO, $2.0)
QUAD(BIAS, $0x3FF)
// math.tanh's rational for |x| < 0.625, and its branch points 0.625 and
// 0.5*MAXLOG.
QUAD(P0, $-9.64399179425052238628e-1)
QUAD(P1, $-9.92877231001918586564e1)
QUAD(P2, $-1.61468768441708447952e3)
QUAD(Q0, $1.12811678491632931402e2)
QUAD(Q1, $2.23548839060100448583e3)
QUAD(Q2, $4.84406305325125486048e3)
QUAD(SMALL, $0.625)
QUAD(LARGE, $44.014845965556527147994)
DATA gateconst<>+KMAX(SB)/8, $0x000003FF000003FF
DATA gateconst<>+(KMAX+8)(SB)/8, $0x000003FF000003FF
DATA gateconst<>+KMIN(SB)/8, $0xFFFFFC02FFFFFC02
DATA gateconst<>+(KMIN+8)(SB)/8, $0xFFFFFC02FFFFFC02
GLOBL gateconst<>(SB), RODATA, $800

// func sigmoidsAVX(dst, src *float64, n int) int
//
// For n groups of four, dst = 1 / (1 + exp(-src)): VXORPD flips the sign
// as Go's negation does, then VADDPD and VDIVPD round as ADDSD and DIVSD.
// It returns the number of groups stored before the first one EXP4
// declined (n if none).
TEXT ·sigmoidsAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  done
	VMOVDQU gateconst<>+KMIN(SB), X14
	VMOVUPD gateconst<>+ONE(SB), Y15

sigmoid:
	VMOVUPD (SI), Y0
	VXORPD  gateconst<>+SIGN(SB), Y0, Y0
	EXP4
	VADDPD  Y15, Y0, Y0
	VDIVPD  Y0, Y15, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	INCQ    AX
	CMPQ    AX, CX
	JLT     sigmoid

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func tanhsAVX(dst, src *float64, n int) int
//
// For n groups of four, dst = math.Tanh(src). With z = |x| it evaluates
// all three branches of Go's pure-Go tanh in their operation order, then
// blends per lane in the switch's precedence: the rational
// x + x*s*P(s)/Q(s) with s = x*x; where z >= 0.625, 1 - 2/(exp(2z)+1)
// with x's sign; where z > 0.5*MAXLOG, ±1; where x == ±0, x itself. EXP4
// runs on 2z, so groups with a NaN or an infinity are declined, as are
// those with |x| beyond about 354.7, where 2z leaves the fast range.
// Returns as sigmoidsAVX does.
TEXT ·tanhsAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  done
	VMOVDQU gateconst<>+KMIN(SB), X14
	VMOVUPD gateconst<>+ONE(SB), Y15
	VXORPD  Y13, Y13, Y13

tanh:
	VMOVUPD (SI), Y4
	VANDPD  gateconst<>+ABS(SB), Y4, Y5
	VADDPD  Y5, Y5, Y0
	EXP4
	VADDPD    Y15, Y0, Y0
	VMOVUPD   gateconst<>+TWO(SB), Y1
	VDIVPD    Y0, Y1, Y0
	VSUBPD    Y0, Y15, Y0
	VANDPD    gateconst<>+SIGN(SB), Y4, Y6
	VXORPD    Y6, Y0, Y0
	VMULPD    Y4, Y4, Y7
	VMULPD    gateconst<>+P0(SB), Y7, Y8
	VADDPD    gateconst<>+P1(SB), Y8, Y8
	VMULPD    Y7, Y8, Y8
	VADDPD    gateconst<>+P2(SB), Y8, Y8
	VADDPD    gateconst<>+Q0(SB), Y7, Y9
	VMULPD    Y7, Y9, Y9
	VADDPD    gateconst<>+Q1(SB), Y9, Y9
	VMULPD    Y7, Y9, Y9
	VADDPD    gateconst<>+Q2(SB), Y9, Y9
	VMULPD    Y7, Y4, Y10
	VMULPD    Y8, Y10, Y10
	VDIVPD    Y9, Y10, Y10
	VADDPD    Y10, Y4, Y10
	VCMPPD    $0x1D, gateconst<>+SMALL(SB), Y5, Y11
	VBLENDVPD Y11, Y0, Y10, Y10
	VCMPPD    $0x1E, gateconst<>+LARGE(SB), Y5, Y11
	VORPD     Y15, Y6, Y12
	VBLENDVPD Y11, Y12, Y10, Y10
	VCMPPD    $0x00, Y13, Y4, Y11
	VBLENDVPD Y11, Y4, Y10, Y10
	VMOVUPD   Y10, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	INCQ      AX
	CMPQ      AX, CX
	JLT       tanh

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
