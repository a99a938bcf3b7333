//go:build amd64

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The canonical order. Every projection output and every attention score
// is one YMM accumulator starting at zero, one fused multiply-add per
// group of eight k ascending, then REDUCE8. The kernels below differ only
// in which eight such accumulators they keep in flight.

// ZERO8 clears the eight accumulators Y0..Y7.
#define ZERO8 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7

// REDUCE8 folds the eight accumulators Y0..Y7 into the eight lanes of Y0,
// lane j = ((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7)) of accumulator Yj: two
// rounds of horizontal adds transpose as they sum, then the low and high
// halves meet. The tree is the same for every lane. Clobbers Y1..Y7.
#define REDUCE8 \
	VHADDPS Y1, Y0, Y0; \
	VHADDPS Y3, Y2, Y2; \
	VHADDPS Y5, Y4, Y4; \
	VHADDPS Y7, Y6, Y6; \
	VHADDPS Y2, Y0, Y0; \
	VHADDPS Y6, Y4, Y4; \
	VPERM2F128 $0x20, Y4, Y0, Y1; \
	VPERM2F128 $0x31, Y4, Y0, Y2; \
	VADDPS Y2, Y1, Y0

// func matVecFMA(dst, w, x *float32, rows, cols int)
//
// Eight weight rows in flight: one load of an x group feeds eight
// accumulators. rows >= 8; when rows is not a multiple of 8 the last
// block is the last eight rows, recomputing what it overlaps.
TEXT ·matVecFMA(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ rows+24(FP), BX
	MOVQ cols+32(FP), CX
	SHLQ $2, CX              // CX = row length in bytes

mvblock:
	MOVQ SI, R8
	LEAQ (R8)(CX*1), R9
	LEAQ (R9)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	LEAQ (R11)(CX*1), R12
	LEAQ (R12)(CX*1), R13
	LEAQ (R13)(CX*1), R14
	LEAQ (R14)(CX*1), R15
	ZERO8
	XORQ AX, AX

mvk:
	VMOVUPS (DX)(AX*1), Y8
	VFMADD231PS (R8)(AX*1), Y8, Y0
	VFMADD231PS (R9)(AX*1), Y8, Y1
	VFMADD231PS (R10)(AX*1), Y8, Y2
	VFMADD231PS (R11)(AX*1), Y8, Y3
	VFMADD231PS (R12)(AX*1), Y8, Y4
	VFMADD231PS (R13)(AX*1), Y8, Y5
	VFMADD231PS (R14)(AX*1), Y8, Y6
	VFMADD231PS (R15)(AX*1), Y8, Y7
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  mvk

	REDUCE8
	VMOVUPS Y0, (DI)

	SUBQ $8, BX
	JLE  mvdone
	MOVQ $8, AX              // rows to advance
	CMPQ BX, $8
	JGE  mvadv
	MOVQ BX, AX              // partial tail: back up so the block ends at the last row
	MOVQ $8, BX
mvadv:
	LEAQ (DI)(AX*4), DI
	IMULQ CX, AX
	ADDQ AX, SI
	JMP  mvblock

mvdone:
	VZEROUPPER
	RET

// func matMulTFMA(dst *float32, dstStride int, x *float32, n int, w *float32, rows, cols int)
//
// Register tile of two activation rows by four weight rows: each loaded
// weight group is applied to both rows. n is even and > 0, rows >= 4;
// a partial last weight block is the last four rows, as in matVecFMA.
// Weight blocks are the outer loop so four weight rows stay in L1 across
// every activation pair.
TEXT ·matMulTFMA(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), R15      // R15 = dst column of this weight block
	MOVQ dstStride+8(FP), R14
	SHLQ $2, R14             // R14 = dst row length in bytes
	MOVQ w+32(FP), SI
	MOVQ rows+40(FP), BX
	MOVQ cols+48(FP), CX
	SHLQ $2, CX              // CX = row length in bytes (weights and x)

mmblock:
	MOVQ SI, R8
	LEAQ (R8)(CX*1), R9
	LEAQ (R9)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	MOVQ x+16(FP), DX
	MOVQ n+24(FP), R13
	MOVQ R15, DI

mmpair:
	LEAQ (DX)(CX*1), R12
	ZERO8
	XORQ AX, AX

mmk:
	VMOVUPS (R8)(AX*1), Y8
	VMOVUPS (R9)(AX*1), Y9
	VMOVUPS (R10)(AX*1), Y10
	VMOVUPS (R11)(AX*1), Y11
	VMOVUPS (DX)(AX*1), Y12
	VMOVUPS (R12)(AX*1), Y13
	VFMADD231PS Y8, Y12, Y0
	VFMADD231PS Y9, Y12, Y1
	VFMADD231PS Y10, Y12, Y2
	VFMADD231PS Y11, Y12, Y3
	VFMADD231PS Y8, Y13, Y4
	VFMADD231PS Y9, Y13, Y5
	VFMADD231PS Y10, Y13, Y6
	VFMADD231PS Y11, Y13, Y7
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  mmk

	REDUCE8
	VMOVUPS X0, (DI)
	VEXTRACTF128 $1, Y0, (DI)(R14*1)

	LEAQ (R12)(CX*1), DX     // next pair of activation rows
	LEAQ (DI)(R14*2), DI
	SUBQ $2, R13
	JG   mmpair

	SUBQ $4, BX
	JLE  mmdone
	MOVQ $4, AX
	CMPQ BX, $4
	JGE  mmadv
	MOVQ BX, AX
	MOVQ $4, BX
mmadv:
	LEAQ (R15)(AX*4), R15
	IMULQ CX, AX
	ADDQ AX, SI
	JMP  mmblock

mmdone:
	VZEROUPPER
	RET

// Offsets into ·expTab, 32 bytes per replicated constant.
#define EXP_LO    0
#define EXP_HI    32
#define EXP_LOG2E 64
#define EXP_LN2HI 96
#define EXP_LN2LO 128
#define EXP_C0    160
#define EXP_C1    192
#define EXP_C2    224
#define EXP_C3    256
#define EXP_C4    288
#define EXP_C5    320
#define EXP_ONE   352
#define EXP_BIAS  384
#define EXP_SIGN  416

// EXP8 replaces the eight floats in X by their exponentials (see expGo
// for the algorithm). TAB holds &expTab; M, N, U and Z are scratch. In
// order: M = lanes below lo, to flush to 0; clamp; N = round-to-nearest-
// even of x*log2e; X = r = x - n*ln2 in two fused steps; N = 2^n built
// in the exponent field; U = Horner polynomial, then U*r^2 + r + 1;
// scale by 2^n; clear the flushed lanes.
#define EXP8(X, M, N, U, Z, TAB) \
	VCMPPS $1, EXP_LO(TAB), X, M; \
	VMINPS EXP_HI(TAB), X, X; \
	VMAXPS EXP_LO(TAB), X, X; \
	VMULPS EXP_LOG2E(TAB), X, N; \
	VROUNDPS $0, N, N; \
	VFNMADD231PS EXP_LN2HI(TAB), N, X; \
	VFNMADD231PS EXP_LN2LO(TAB), N, X; \
	VCVTPS2DQ N, N; \
	VPADDD EXP_BIAS(TAB), N, N; \
	VPSLLD $23, N, N; \
	VMULPS X, X, Z; \
	VMOVUPS EXP_C0(TAB), U; \
	VFMADD213PS EXP_C1(TAB), X, U; \
	VFMADD213PS EXP_C2(TAB), X, U; \
	VFMADD213PS EXP_C3(TAB), X, U; \
	VFMADD213PS EXP_C4(TAB), X, U; \
	VFMADD213PS EXP_C5(TAB), X, U; \
	VFMADD213PS X, Z, U; \
	VADDPS EXP_ONE(TAB), U, U; \
	VMULPS N, U, U; \
	VANDNPS U, M, X

// func softmaxExpFMA(p *float32, n8 int, max float32) float32
TEXT ·softmaxExpFMA(SB), NOSPLIT, $0-28
	MOVQ p+0(FP), SI
	MOVQ n8+8(FP), CX
	SHLQ $2, CX
	VBROADCASTSS max+16(FP), Y6
	LEAQ ·expTab(SB), R9
	VXORPS Y7, Y7, Y7        // Y7 = lane sums
	XORQ AX, AX
smexp:
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS Y6, Y0, Y0
	EXP8(Y0, Y1, Y2, Y3, Y4, R9)
	VMOVUPS Y0, (SI)(AX*1)
	VADDPS Y0, Y7, Y7
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  smexp

	VHADDPS Y7, Y7, Y7
	VHADDPS Y7, Y7, Y7
	VEXTRACTF128 $1, Y7, X1
	VADDSS X1, X7, X7
	VZEROUPPER
	MOVSS X7, ret+24(FP)
	RET

// func siluMulFMA(dst, a, b *float32, n8 int)
TEXT ·siluMulFMA(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n8+24(FP), CX
	SHLQ $2, CX
	LEAQ ·expTab(SB), R9
	XORQ AX, AX
silu:
	VMOVUPS (SI)(AX*1), Y5
	VXORPS EXP_SIGN(R9), Y5, Y0
	EXP8(Y0, Y1, Y2, Y3, Y4, R9)
	VADDPS EXP_ONE(R9), Y0, Y0
	VDIVPS Y0, Y5, Y0        // a / (1 + e^-a)
	VMULPS (DX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  silu
	VZEROUPPER
	RET

// CELLPTR sets P to the address of the K head of visible cell i+J, where
// R8 = i, R9 = n-1, SI = cells, DX = row stride in bytes, DI = head base.
// Indices past the last cell clamp to it: a partial tile recomputes the
// last cell in its spare slots and the caller ignores those scores.
#define CELLPTR(J, P) \
	LEAQ J(R8), P; \
	CMPQ P, R9; \
	CMOVQGT R9, P; \
	MOVQ (SI)(P*8), P; \
	IMULQ DX, P; \
	ADDQ DI, P

// HMAX4 leaves the maximum of X's four lanes in lane 0; T is scratch.
#define HMAX4(X, T) \
	VPERMILPS $0x4E, X, T; \
	VMAXPS T, X, X; \
	VPERMILPS $0xB1, X, T; \
	VMAXPS T, X, X

// func attnScores1(s, q, k *float32, stride int, cells *int, n, hd int, scale float32) float32
//
// One query head, eight cells per tile: the q group is loaded once per
// tile half and multiplied into four cells' accumulators. Returns the
// largest score (the clamped spare slots repeat a real cell, so they
// cannot raise it).
TEXT ·attnScores1(SB), NOSPLIT, $0-68
	MOVQ s+0(FP), R15
	MOVQ q+8(FP), AX
	MOVQ k+16(FP), DI
	MOVQ stride+24(FP), DX
	SHLQ $2, DX
	MOVQ cells+32(FP), SI
	MOVQ n+40(FP), R9
	DECQ R9
	MOVQ hd+48(FP), R14
	SHLQ $2, R14
	VBROADCASTSS scale+56(FP), Y15
	VBROADCASTSS ·negInf(SB), Y14 // Y14 = lane maxima
	XORQ R8, R8

s1tile:
	ZERO8
	CELLPTR(0, R10)
	CELLPTR(1, R11)
	CELLPTR(2, R12)
	CELLPTR(3, R13)
	XORQ CX, CX
s1a:
	VMOVUPS (AX)(CX*1), Y8
	VFMADD231PS (R10)(CX*1), Y8, Y0
	VFMADD231PS (R11)(CX*1), Y8, Y1
	VFMADD231PS (R12)(CX*1), Y8, Y2
	VFMADD231PS (R13)(CX*1), Y8, Y3
	ADDQ $32, CX
	CMPQ CX, R14
	JLT  s1a
	CELLPTR(4, R10)
	CELLPTR(5, R11)
	CELLPTR(6, R12)
	CELLPTR(7, R13)
	XORQ CX, CX
s1b:
	VMOVUPS (AX)(CX*1), Y8
	VFMADD231PS (R10)(CX*1), Y8, Y4
	VFMADD231PS (R11)(CX*1), Y8, Y5
	VFMADD231PS (R12)(CX*1), Y8, Y6
	VFMADD231PS (R13)(CX*1), Y8, Y7
	ADDQ $32, CX
	CMPQ CX, R14
	JLT  s1b

	REDUCE8
	VMULPS Y15, Y0, Y0
	VMOVUPS Y0, (R15)(R8*4)
	VMAXPS Y0, Y14, Y14
	ADDQ $8, R8
	CMPQ R8, R9
	JLE  s1tile
	VEXTRACTF128 $1, Y14, X0
	VMAXPS X0, X14, X14
	HMAX4(X14, X0)
	VZEROUPPER
	MOVSS X14, ret+64(FP)
	RET

// func attnScores2(s0, s1, q0, q1, k *float32, stride int, cells *int, n, hd int, scale float32) (max0, max1 float32)
//
// Two query heads of one GQA group, four cells per tile: every K group is
// loaded once and multiplied into both heads' accumulators.
TEXT ·attnScores2(SB), NOSPLIT, $0-88
	MOVQ s0+0(FP), R15
	MOVQ q0+16(FP), AX
	MOVQ q1+24(FP), BX
	MOVQ k+32(FP), DI
	MOVQ stride+40(FP), DX
	SHLQ $2, DX
	MOVQ cells+48(FP), SI
	MOVQ n+56(FP), R9
	DECQ R9
	MOVQ hd+64(FP), R14
	SHLQ $2, R14
	VBROADCASTSS scale+72(FP), Y15
	VBROADCASTSS ·negInf(SB), Y14 // Y14 = lane maxima: head 0 low, head 1 high
	XORQ R8, R8

s2tile:
	ZERO8
	CELLPTR(0, R10)
	CELLPTR(1, R11)
	CELLPTR(2, R12)
	CELLPTR(3, R13)
	XORQ CX, CX
s2k:
	VMOVUPS (AX)(CX*1), Y8
	VMOVUPS (BX)(CX*1), Y9
	VMOVUPS (R10)(CX*1), Y10
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y10, Y9, Y4
	VMOVUPS (R11)(CX*1), Y11
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y11, Y9, Y5
	VMOVUPS (R12)(CX*1), Y12
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y12, Y9, Y6
	VMOVUPS (R13)(CX*1), Y13
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y13, Y9, Y7
	ADDQ $32, CX
	CMPQ CX, R14
	JLT  s2k

	REDUCE8
	VMULPS Y15, Y0, Y0
	VMOVUPS X0, (R15)(R8*4)
	MOVQ s1+8(FP), R10
	VEXTRACTF128 $1, Y0, (R10)(R8*4)
	VMAXPS Y0, Y14, Y14
	ADDQ $4, R8
	CMPQ R8, R9
	JLE  s2tile
	VEXTRACTF128 $1, Y14, X13
	HMAX4(X14, X0)
	HMAX4(X13, X0)
	VZEROUPPER
	MOVSS X14, max0+80(FP)
	MOVSS X13, max1+84(FP)
	RET

// VROW sets R10 to the address of group CX of the V head of visible cell
// i+J (R8 = i, SI = cells, DX = row stride in bytes, DI = head base).
#define VROW(J) \
	MOVQ J*8(SI)(R8*8), R10; \
	IMULQ DX, R10; \
	ADDQ DI, R10

// ACC1 adds p[i+J] times cell i+J's V group into accumulator A.
#define ACC1(J, A) \
	VROW(J); \
	VBROADCASTSS J*4(AX)(R8*4), Y9; \
	VFMADD231PS (R10)(CX*1), Y9, A

// ACC2 does the same for two heads sharing the V load.
#define ACC2(J, A0, A1) \
	VROW(J); \
	VMOVUPS (R10)(CX*1), Y8; \
	VBROADCASTSS J*4(AX)(R8*4), Y9; \
	VBROADCASTSS J*4(BX)(R8*4), Y10; \
	VFMADD231PS Y8, Y9, A0; \
	VFMADD231PS Y8, Y10, A1

// func attnAccum1(out, p, v *float32, stride int, cells *int, n, hd int, sum float32)
//
// Per group of eight output dims: cell i accumulates into accumulator
// i mod 4, the four fold as (a0+a1)+(a2+a3), one division by sum.
TEXT ·attnAccum1(SB), NOSPLIT, $0-60
	MOVQ out+0(FP), R13
	MOVQ p+8(FP), AX
	MOVQ v+16(FP), DI
	MOVQ stride+24(FP), DX
	SHLQ $2, DX
	MOVQ cells+32(FP), SI
	MOVQ n+40(FP), R9
	MOVQ R9, R11
	ANDQ $-4, R11            // R11 = cells covered by the unrolled loop
	MOVQ hd+48(FP), R14
	SHLQ $2, R14
	VBROADCASTSS sum+56(FP), Y15
	XORQ CX, CX

a1group:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ R8, R8
	CMPQ R8, R11
	JGE  a1tail
a1four:
	ACC1(0, Y0)
	ACC1(1, Y1)
	ACC1(2, Y2)
	ACC1(3, Y3)
	ADDQ $4, R8
	CMPQ R8, R11
	JLT  a1four
a1tail:
	MOVQ R9, R12
	SUBQ R8, R12             // 0..3 cells left
	JZ   a1fold
	ACC1(0, Y0)
	CMPQ R12, $2
	JLT  a1fold
	ACC1(1, Y1)
	CMPQ R12, $3
	JLT  a1fold
	ACC1(2, Y2)
a1fold:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VDIVPS Y15, Y0, Y0
	VMOVUPS Y0, (R13)(CX*1)
	ADDQ $32, CX
	CMPQ CX, R14
	JLT  a1group
	VZEROUPPER
	RET

// func attnAccum2(out0, out1, p0, p1, v *float32, stride int, cells *int, n, hd int, sum0, sum1 float32)
TEXT ·attnAccum2(SB), NOSPLIT, $0-80
	MOVQ out0+0(FP), R13
	MOVQ out1+8(FP), R15
	MOVQ p0+16(FP), AX
	MOVQ p1+24(FP), BX
	MOVQ v+32(FP), DI
	MOVQ stride+40(FP), DX
	SHLQ $2, DX
	MOVQ cells+48(FP), SI
	MOVQ n+56(FP), R9
	MOVQ R9, R11
	ANDQ $-4, R11
	MOVQ hd+64(FP), R14
	SHLQ $2, R14
	VBROADCASTSS sum0+72(FP), Y14
	VBROADCASTSS sum1+76(FP), Y15
	XORQ CX, CX

a2group:
	ZERO8
	XORQ R8, R8
	CMPQ R8, R11
	JGE  a2tail
a2four:
	ACC2(0, Y0, Y4)
	ACC2(1, Y1, Y5)
	ACC2(2, Y2, Y6)
	ACC2(3, Y3, Y7)
	ADDQ $4, R8
	CMPQ R8, R11
	JLT  a2four
a2tail:
	MOVQ R9, R12
	SUBQ R8, R12
	JZ   a2fold
	ACC2(0, Y0, Y4)
	CMPQ R12, $2
	JLT  a2fold
	ACC2(1, Y1, Y5)
	CMPQ R12, $3
	JLT  a2fold
	ACC2(2, Y2, Y6)
a2fold:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VDIVPS Y14, Y0, Y0
	VMOVUPS Y0, (R13)(CX*1)
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y6, Y4, Y4
	VDIVPS Y15, Y4, Y4
	VMOVUPS Y4, (R15)(CX*1)
	ADDQ $32, CX
	CMPQ CX, R14
	JLT  a2group
	VZEROUPPER
	RET
