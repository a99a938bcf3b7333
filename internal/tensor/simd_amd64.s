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

// HADD(B, A, T) leaves in A what VHADDPS B, A, A leaves, at any vector
// width (VHADDPS has no EVEX form): per 128-bit lane, the sums of A's
// adjacent pairs, then B's. T is scratch.
#define HADD(B, A, T) \
	VSHUFPS $0xDD, B, A, T; \
	VSHUFPS $0x88, B, A, A; \
	VADDPS T, A, A

// REDUCE8Z is REDUCE8 over two activation rows at once: A0..A7 hold eight
// weight rows' accumulators, each row 2p's in its low 256 bits and row
// 2p+1's in its high ones. The same pairs meet in the same tree: the two
// horizontal-add rounds as HADD, then the 128-bit halves of each 256-bit
// half are added, low plus high, by two VSHUFF32X4 and a VADDPS, and a
// third VSHUFF32X4 gathers each row's outputs: A0 ends with row 2p's eight
// in its low 256 bits and row 2p+1's in its high ones. Clobbers A1..A7
// and T.
#define REDUCE8Z(A0, A1, A2, A3, A4, A5, A6, A7, T) \
	HADD(A1, A0, T); \
	HADD(A3, A2, T); \
	HADD(A5, A4, T); \
	HADD(A7, A6, T); \
	HADD(A2, A0, T); \
	HADD(A6, A4, T); \
	VSHUFF32X4 $0x88, A4, A0, T; \
	VSHUFF32X4 $0xDD, A4, A0, A1; \
	VADDPS A1, T, A0; \
	VSHUFF32X4 $0xD8, A0, A0, A0

// ZERO8Z(A0..A7) clears eight ZMM accumulators.
#define ZERO8Z(A0, A1, A2, A3, A4, A5, A6, A7) \
	VPXORD A0, A0, A0; \
	VPXORD A1, A1, A1; \
	VPXORD A2, A2, A2; \
	VPXORD A3, A3, A3; \
	VPXORD A4, A4, A4; \
	VPXORD A5, A5, A5; \
	VPXORD A6, A6, A6; \
	VPXORD A7, A7, A7

// PAIRZ(PY, PZ, LO, HI) loads group AX of activation rows LO (into the
// low 256 bits, PY) and HI (into the high ones) into PZ.
#define PAIRZ(PY, PZ, LO, HI) \
	VMOVUPS (LO)(AX*1), PY; \
	VINSERTF32X8 $1, (HI)(AX*1), PZ, PZ

// ROW8Z(W, A, B) applies weight row W's group AX of eight, broadcast to
// both halves of Z24, to the activation pairs in Z16 (into A) and Z17
// (into B); ROW8Z1 applies it to Z16 alone.
#define ROW8Z(W, A, B) \
	VBROADCASTF32X8 (W)(AX*1), Z24; \
	VFMADD231PS Z24, Z16, A; \
	VFMADD231PS Z24, Z17, B

#define ROW8Z1(W, A) \
	VBROADCASTF32X8 (W)(AX*1), Z24; \
	VFMADD231PS Z24, Z16, A

// func matMulTFMA512(dst *float32, dstStride int, x *float32, n int, w *float32, rows, cols int)
//
// matMulTFMA at AVX-512 width (F and DQ): a tile of two activation pairs
// by eight weight rows in sixteen ZMM accumulators, Z0..Z7 for the first
// pair and Z8..Z15 for the second, and for a last pair the half tile
// Z0..Z7. Each accumulator holds one weight row's YMM accumulator for
// activation row 2p in its low 256 bits and row 2p+1's in its high ones,
// so every lane runs matMulTFMA's fused multiply-add chain, k ascending,
// and REDUCE8Z folds it in REDUCE8's tree: the outputs are matMulTFMA's
// bits. n is even and > 0, rows >= 8; a partial last weight block is the
// last eight rows. Weight blocks are the outer loop, as in matMulTFMA.
TEXT ·matMulTFMA512(SB), NOSPLIT, $32-56
	MOVQ dst+0(FP), AX
	MOVQ AX, col-8(SP)       // dst column of this weight block
	MOVQ rows+40(FP), AX
	MOVQ AX, left-16(SP)     // weight rows from this block on
	MOVQ w+32(FP), R8
	MOVQ cols+48(FP), CX
	SHLQ $2, CX              // CX = row length in bytes (weights and x)

zblock:
	LEAQ (R8)(CX*1), R9
	LEAQ (R9)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	LEAQ (R11)(CX*1), R12
	LEAQ (R12)(CX*1), R13
	LEAQ (R13)(CX*1), R14
	LEAQ (R14)(CX*1), R15
	MOVQ col-8(SP), AX
	MOVQ AX, out-24(SP)      // dst row of the next activation pair
	MOVQ n+24(FP), AX
	MOVQ AX, rowsx-32(SP)    // activation rows left in this block
	MOVQ x+16(FP), DX        // DX = the next activation row

znext:
	LEAQ (DX)(CX*1), SI
	CMPQ rowsx-32(SP), $4
	JLT  zpair
	LEAQ (SI)(CX*1), DI
	LEAQ (DI)(CX*1), BX
	ZERO8Z(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	ZERO8Z(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	XORQ AX, AX
zk:
	PAIRZ(Y16, Z16, DX, SI)
	PAIRZ(Y17, Z17, DI, BX)
	ROW8Z(R8, Z0, Z8)
	ROW8Z(R9, Z1, Z9)
	ROW8Z(R10, Z2, Z10)
	ROW8Z(R11, Z3, Z11)
	ROW8Z(R12, Z4, Z12)
	ROW8Z(R13, Z5, Z13)
	ROW8Z(R14, Z6, Z14)
	ROW8Z(R15, Z7, Z15)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  zk

	REDUCE8Z(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16)
	REDUCE8Z(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z17)
	MOVQ out-24(SP), SI
	MOVQ dstStride+8(FP), DI
	SHLQ $2, DI              // DI = dst row length in bytes
	VMOVUPS Y0, (SI)
	VEXTRACTF32X8 $1, Z0, (SI)(DI*1)
	LEAQ (SI)(DI*2), SI
	VMOVUPS Y8, (SI)
	VEXTRACTF32X8 $1, Z8, (SI)(DI*1)
	LEAQ (SI)(DI*2), SI
	MOVQ SI, out-24(SP)
	LEAQ (BX)(CX*1), DX
	SUBQ $4, rowsx-32(SP)
	JG   znext
	JMP  zblockend

zpair:
	ZERO8Z(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	XORQ AX, AX
zpk:
	PAIRZ(Y16, Z16, DX, SI)
	ROW8Z1(R8, Z0)
	ROW8Z1(R9, Z1)
	ROW8Z1(R10, Z2)
	ROW8Z1(R11, Z3)
	ROW8Z1(R12, Z4)
	ROW8Z1(R13, Z5)
	ROW8Z1(R14, Z6)
	ROW8Z1(R15, Z7)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  zpk

	REDUCE8Z(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16)
	MOVQ out-24(SP), SI
	MOVQ dstStride+8(FP), DI
	SHLQ $2, DI
	VMOVUPS Y0, (SI)
	VEXTRACTF32X8 $1, Z0, (SI)(DI*1)

zblockend:
	SUBQ $8, left-16(SP)
	JLE  zdone
	MOVQ $8, AX
	MOVQ left-16(SP), SI
	CMPQ SI, $8
	JGE  zadv
	MOVQ SI, AX              // partial tail: back up so the block ends at the last row
	MOVQ $8, left-16(SP)
zadv:
	MOVQ col-8(SP), SI
	LEAQ (SI)(AX*4), SI
	MOVQ SI, col-8(SP)
	IMULQ CX, AX
	ADDQ AX, R8
	JMP  zblock

zdone:
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

// EXP16 is EXP8 over the sixteen floats in the ZMM X, op for op: the
// flush mask is K = not (x < lo), which keeps NaN lanes as VANDNPS does,
// VRNDSCALEPS $0 is VROUNDPS $0, the constants are embedded broadcasts of
// expTab's first lanes, and the flush is a zeroing move under K. N, U and
// SQ are scratch ZMMs.
#define EXP16(X, K, N, U, SQ, TAB) \
	VCMPPS.BCST $5, EXP_LO(TAB), X, K; \
	VMINPS.BCST EXP_HI(TAB), X, X; \
	VMAXPS.BCST EXP_LO(TAB), X, X; \
	VMULPS.BCST EXP_LOG2E(TAB), X, N; \
	VRNDSCALEPS $0, N, N; \
	VFNMADD231PS.BCST EXP_LN2HI(TAB), N, X; \
	VFNMADD231PS.BCST EXP_LN2LO(TAB), N, X; \
	VCVTPS2DQ N, N; \
	VPADDD.BCST EXP_BIAS(TAB), N, N; \
	VPSLLD $23, N, N; \
	VMULPS X, X, SQ; \
	VBROADCASTSS EXP_C0(TAB), U; \
	VFMADD213PS.BCST EXP_C1(TAB), X, U; \
	VFMADD213PS.BCST EXP_C2(TAB), X, U; \
	VFMADD213PS.BCST EXP_C3(TAB), X, U; \
	VFMADD213PS.BCST EXP_C4(TAB), X, U; \
	VFMADD213PS.BCST EXP_C5(TAB), X, U; \
	VFMADD213PS X, SQ, U; \
	VADDPS.BCST EXP_ONE(TAB), U, U; \
	VMULPS N, U, U; \
	VMOVAPS.Z U, K, X

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

// func softmaxExpFMA512(p *float32, n8 int, max float32) float32
//
// softmaxExpFMA sixteen lanes wide (AVX-512 F and DQ): whole groups of
// sixteen through EXP16, a last group of eight through EXP8. Each group's
// low eight lanes, then its high eight, go into the same eight-lane sum,
// so the sum adds what softmaxExpFMA adds in its order.
TEXT ·softmaxExpFMA512(SB), NOSPLIT, $0-28
	MOVQ p+0(FP), SI
	MOVQ n8+8(FP), CX
	SHLQ $2, CX
	VBROADCASTSS max+16(FP), Z6
	LEAQ ·expTab(SB), R9
	VXORPS Y7, Y7, Y7        // Y7 = lane sums
	XORQ AX, AX
	LEAQ -64(CX), DX         // DX = the last offset a group of sixteen starts at
	CMPQ AX, DX
	JG   sz8
sz16:
	VMOVUPS (SI)(AX*1), Z0
	VSUBPS Z6, Z0, Z0
	EXP16(Z0, K1, Z2, Z3, Z4, R9)
	VMOVUPS Z0, (SI)(AX*1)
	VADDPS Y0, Y7, Y7
	VEXTRACTF32X8 $1, Z0, Y1
	VADDPS Y1, Y7, Y7
	ADDQ $64, AX
	CMPQ AX, DX
	JLE  sz16
sz8:
	CMPQ AX, CX
	JGE  szsum
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS Y6, Y0, Y0
	EXP8(Y0, Y1, Y2, Y3, Y4, R9)
	VMOVUPS Y0, (SI)(AX*1)
	VADDPS Y0, Y7, Y7
szsum:
	VHADDPS Y7, Y7, Y7
	VHADDPS Y7, Y7, Y7
	VEXTRACTF128 $1, Y7, X1
	VADDSS X1, X7, X7
	VZEROUPPER
	MOVSS X7, ret+24(FP)
	RET

// func siluMulFMA512(dst, a, b *float32, n8 int)
//
// siluMulFMA sixteen lanes wide: whole groups of sixteen through EXP16,
// a last group of eight through EXP8.
TEXT ·siluMulFMA512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n8+24(FP), CX
	SHLQ $2, CX
	LEAQ ·expTab(SB), R9
	XORQ AX, AX
	LEAQ -64(CX), BX         // BX = the last offset a group of sixteen starts at
	CMPQ AX, BX
	JG   su8
su16:
	VMOVUPS (SI)(AX*1), Z5
	VXORPS.BCST EXP_SIGN(R9), Z5, Z0
	EXP16(Z0, K1, Z2, Z3, Z4, R9)
	VADDPS.BCST EXP_ONE(R9), Z0, Z0
	VDIVPS Z0, Z5, Z0        // a / (1 + e^-a)
	VMULPS (DX)(AX*1), Z0, Z0
	VMOVUPS Z0, (DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, BX
	JLE  su16
su8:
	CMPQ AX, CX
	JGE  sudone
	VMOVUPS (SI)(AX*1), Y5
	VXORPS EXP_SIGN(R9), Y5, Y0
	EXP8(Y0, Y1, Y2, Y3, Y4, R9)
	VADDPS EXP_ONE(R9), Y0, Y0
	VDIVPS Y0, Y5, Y0
	VMULPS (DX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
sudone:
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

// The panel kernels attend a group of rows over one packed list (see
// attentionGroupAsm). A K panel holds the list's K heads transposed, one
// 8-cell block after another: block b is hd vectors, vector d holding
// dim d of cells 8b..8b+7. A V panel holds the list's V heads back to
// back, hd floats per cell. The score and sum kernels take 16-float
// heads. Every score and output element keeps the arithmetic of
// attnScores1 and attnAccum1 exactly; only the addressing and which
// accumulators are in flight together differ.

// func packPanels(kt, vt, k, v *float32, stride int, cells *int, blocks, hd int)
//
// Packs the K and V heads at k and v (rows stride bytes apart) of the
// 8*blocks cells listed at cells into the panels kt and vt. K goes
// through an 8x8 transpose per group of eight dims: each YMM is loaded
// as two 4-float halves, cell j's beside cell j+4's, so that unpacks and
// shuffles within 128-bit lanes finish the transpose.
TEXT ·packPanels(SB), NOSPLIT, $0-64
	MOVQ kt+0(FP), DI
	MOVQ vt+8(FP), BX
	MOVQ cells+40(FP), SI
	MOVQ hd+56(FP), R14
	SHLQ $2, R14             // R14 = head bytes
	MOVQ v+24(FP), R9
	SUBQ k+16(FP), R9        // R9 = v - k

ppblock:
	MOVQ 0(SI), AX
	IMULQ stride+32(FP), AX
	ADDQ k+16(FP), AX
	MOVQ 8(SI), DX
	IMULQ stride+32(FP), DX
	ADDQ k+16(FP), DX
	MOVQ 16(SI), R8
	IMULQ stride+32(FP), R8
	ADDQ k+16(FP), R8
	MOVQ 24(SI), R10
	IMULQ stride+32(FP), R10
	ADDQ k+16(FP), R10
	MOVQ 32(SI), R11
	IMULQ stride+32(FP), R11
	ADDQ k+16(FP), R11
	MOVQ 40(SI), R12
	IMULQ stride+32(FP), R12
	ADDQ k+16(FP), R12
	MOVQ 48(SI), R13
	IMULQ stride+32(FP), R13
	ADDQ k+16(FP), R13
	MOVQ 56(SI), R15
	IMULQ stride+32(FP), R15
	ADDQ k+16(FP), R15
	XORQ CX, CX

ppgroup:
	VMOVUPS (AX)(CX*1), X0
	VINSERTF128 $1, (R11)(CX*1), Y0, Y0
	VMOVUPS (DX)(CX*1), X1
	VINSERTF128 $1, (R12)(CX*1), Y1, Y1
	VMOVUPS (R8)(CX*1), X2
	VINSERTF128 $1, (R13)(CX*1), Y2, Y2
	VMOVUPS (R10)(CX*1), X3
	VINSERTF128 $1, (R15)(CX*1), Y3, Y3
	VMOVUPS 16(AX)(CX*1), X4
	VINSERTF128 $1, 16(R11)(CX*1), Y4, Y4
	VMOVUPS 16(DX)(CX*1), X5
	VINSERTF128 $1, 16(R12)(CX*1), Y5, Y5
	VMOVUPS 16(R8)(CX*1), X6
	VINSERTF128 $1, 16(R13)(CX*1), Y6, Y6
	VMOVUPS 16(R10)(CX*1), X7
	VINSERTF128 $1, 16(R15)(CX*1), Y7, Y7
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7
	VMOVUPS Y0, (DI)(CX*8)
	VMOVUPS Y1, 32(DI)(CX*8)
	VMOVUPS Y2, 64(DI)(CX*8)
	VMOVUPS Y3, 96(DI)(CX*8)
	VMOVUPS Y4, 128(DI)(CX*8)
	VMOVUPS Y5, 160(DI)(CX*8)
	VMOVUPS Y6, 192(DI)(CX*8)
	VMOVUPS Y7, 224(DI)(CX*8)
	ADDQ $32, CX
	CMPQ CX, R14
	JLT  ppgroup
	LEAQ (DI)(R14*8), DI

	// V: the same eight cells' heads, one after another.
	ADDQ R9, AX
	ADDQ R9, DX
	ADDQ R9, R8
	ADDQ R9, R10
	ADDQ R9, R11
	ADDQ R9, R12
	ADDQ R9, R13
	ADDQ R9, R15
	XORQ CX, CX
ppv:
	MOVQ BX, R9
	VMOVUPS (AX)(CX*1), Y0
	VMOVUPS Y0, (R9)(CX*1)
	ADDQ R14, R9
	VMOVUPS (DX)(CX*1), Y1
	VMOVUPS Y1, (R9)(CX*1)
	ADDQ R14, R9
	VMOVUPS (R8)(CX*1), Y2
	VMOVUPS Y2, (R9)(CX*1)
	ADDQ R14, R9
	VMOVUPS (R10)(CX*1), Y3
	VMOVUPS Y3, (R9)(CX*1)
	ADDQ R14, R9
	VMOVUPS (R11)(CX*1), Y4
	VMOVUPS Y4, (R9)(CX*1)
	ADDQ R14, R9
	VMOVUPS (R12)(CX*1), Y5
	VMOVUPS Y5, (R9)(CX*1)
	ADDQ R14, R9
	VMOVUPS (R13)(CX*1), Y6
	VMOVUPS Y6, (R9)(CX*1)
	ADDQ R14, R9
	VMOVUPS (R15)(CX*1), Y7
	VMOVUPS Y7, (R9)(CX*1)
	ADDQ $32, CX
	CMPQ CX, R14
	JLT  ppv
	LEAQ (BX)(R14*8), BX
	MOVQ v+24(FP), R9
	SUBQ k+16(FP), R9
	ADDQ $64, SI
	DECQ blocks+48(FP)
	JNZ  ppblock
	VZEROUPPER
	RET

// PAIR(L, QA, QB, A) accumulates dims L and L+8 of the tile's eight cells
// (K panel at R10) into A, q[L] in QA and q[L+8] in QB.
#define PAIR(L, QA, QB, A) \
	VFMADD231PS (L*32)(R10), QA, A; \
	VFMADD231PS (L*32+256)(R10), QB, A

// func attnPanel16(s, q, kt *float32, n int, scale float32) float32
//
// Eight cells per tile, one cell per lane, q's sixteen dims held in
// registers. Accumulator l collects dims l and l+8 of every cell in
// that order — lane l of attnScores1's accumulator — so folding the eight
// in REDUCE8's tree is attnScores1's score, bit for bit: a first pass
// over the tiles folds accumulators 0-3 to (a0+a1)+(a2+a3) into s, a
// second folds 4-7 and adds the first pass's half (REDUCE8's last add),
// then scales. Lanes past n are written as -inf (exp gives 0), so the
// caller pads nothing. Returns the largest score.
TEXT ·attnPanel16(SB), NOSPLIT, $0-44
	MOVQ s+0(FP), R15
	MOVQ q+8(FP), AX
	MOVQ kt+16(FP), DI
	MOVQ n+24(FP), R9
	MOVQ R9, R11
	ANDQ $-8, R11            // R11 = cells in whole tiles

	VBROADCASTSS 0(AX), Y8
	VBROADCASTSS 32(AX), Y9
	VBROADCASTSS 4(AX), Y10
	VBROADCASTSS 36(AX), Y11
	VBROADCASTSS 8(AX), Y12
	VBROADCASTSS 40(AX), Y13
	VBROADCASTSS 12(AX), Y14
	VBROADCASTSS 44(AX), Y15
	MOVQ DI, R10
	XORQ R8, R8
p16a:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	PAIR(0, Y8, Y9, Y0)
	PAIR(1, Y10, Y11, Y1)
	PAIR(2, Y12, Y13, Y2)
	PAIR(3, Y14, Y15, Y3)
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VMOVUPS Y0, (R15)(R8*4)
	ADDQ $512, R10
	ADDQ $8, R8
	CMPQ R8, R9
	JLT  p16a

	VBROADCASTSS 16(AX), Y8
	VBROADCASTSS 48(AX), Y9
	VBROADCASTSS 20(AX), Y10
	VBROADCASTSS 52(AX), Y11
	VBROADCASTSS 24(AX), Y12
	VBROADCASTSS 56(AX), Y13
	VBROADCASTSS 28(AX), Y14
	VBROADCASTSS 60(AX), Y15
	VBROADCASTSS scale+32(FP), Y4
	VBROADCASTSS ·negInf(SB), Y5 // Y5 = lane maxima
	VMOVAPS Y5, Y6
	LEAQ ·laneMask+32(SB), DX
	MOVQ DI, R10
	XORQ R8, R8
p16b:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	PAIR(4, Y8, Y9, Y0)
	PAIR(5, Y10, Y11, Y1)
	PAIR(6, Y12, Y13, Y2)
	PAIR(7, Y14, Y15, Y3)
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VADDPS (R15)(R8*4), Y0, Y0
	VMULPS Y4, Y0, Y0
	CMPQ R8, R11
	JLT  p16store
	MOVQ R8, CX              // the last, partial tile: lanes past n get -inf
	SUBQ R9, CX
	SHLQ $2, CX
	VMOVUPS (DX)(CX*1), Y7
	VBLENDVPS Y7, Y0, Y6, Y0
p16store:
	VMOVUPS Y0, (R15)(R8*4)
	VMAXPS Y0, Y5, Y5
	ADDQ $512, R10
	ADDQ $8, R8
	CMPQ R8, R9
	JLT  p16b
	VEXTRACTF128 $1, Y5, X0
	VMAXPS X0, X5, X5
	HMAX4(X5, X0)
	VZEROUPPER
	MOVSS X5, ret+40(FP)
	RET

// PACC(J, R0, R1, A0, A1) adds p[i+J] times the sixteen dims of a V
// panel row (dims 0-7 at R0, 8-15 at R1) into accumulators A0 and A1.
#define PACC(J, R0, R1, A0, A1) \
	VBROADCASTSS J*4(AX)(R8*4), Y9; \
	VFMADD231PS R0, Y9, A0; \
	VFMADD231PS R1, Y9, A1

// FOLD4(A0, A1, A2, A3) leaves (A0+A1)+(A2+A3), divided by Y15, in A0.
#define FOLD4(A0, A1, A2, A3) \
	VADDPS A1, A0, A0; \
	VADDPS A3, A2, A2; \
	VADDPS A2, A0, A0; \
	VDIVPS Y15, A0, A0

// func attnPanelAccum16(out, p, vt *float32, n int, sum float32)
//
// attnAccum1 over a V panel of 16-float heads, both groups of eight dims
// in one pass (one broadcast of p[i] feeds both): cell i of each group
// accumulates into accumulator i mod 4, the four fold as (a0+a1)+(a2+a3),
// one division by sum.
TEXT ·attnPanelAccum16(SB), NOSPLIT, $0-36
	MOVQ out+0(FP), R13
	MOVQ p+8(FP), AX
	MOVQ vt+16(FP), R10
	MOVQ n+24(FP), R9
	MOVQ R9, R11
	ANDQ $-4, R11            // R11 = cells covered by the unrolled loop
	VBROADCASTSS sum+32(FP), Y15
	ZERO8
	XORQ R8, R8
	CMPQ R8, R11
	JGE  patail
pafour:
	PACC(0, (R10), 32(R10), Y0, Y4)
	PACC(1, 64(R10), 96(R10), Y1, Y5)
	PACC(2, 128(R10), 160(R10), Y2, Y6)
	PACC(3, 192(R10), 224(R10), Y3, Y7)
	ADDQ $256, R10
	ADDQ $4, R8
	CMPQ R8, R11
	JLT  pafour
patail:
	MOVQ R9, SI
	SUBQ R8, SI              // 0..3 cells left
	JZ   pafold
	PACC(0, (R10), 32(R10), Y0, Y4)
	CMPQ SI, $2
	JLT  pafold
	PACC(1, 64(R10), 96(R10), Y1, Y5)
	CMPQ SI, $3
	JLT  pafold
	PACC(2, 128(R10), 160(R10), Y2, Y6)
pafold:
	FOLD4(Y0, Y1, Y2, Y3)
	VMOVUPS Y0, (R13)
	FOLD4(Y4, Y5, Y6, Y7)
	VMOVUPS Y4, 32(R13)
	VZEROUPPER
	RET

// Offsets into ·bmTab, 32 bytes per constant replicated across four
// 64-bit lanes.
#define BM_GAMMA8  0
#define BM_C1LO    32
#define BM_C1HI    64
#define BM_C2LO    96
#define BM_C2HI    128
#define BM_MAG52   160
#define BM_MAG84   192
#define BM_MAGSUB  224
#define BM_TWOM53  256
#define BM_MANT    288
#define BM_HALF    320
#define BM_KBIAS   352
#define BM_HSQRT2  384
#define BM_ONE     416
#define BM_TWO     448
#define BM_L1      480
#define BM_L2      512
#define BM_L3      544
#define BM_L4      576
#define BM_L5      608
#define BM_L6      640
#define BM_L7      672
#define BM_LN2HI   704
#define BM_LN2LO   736
#define BM_NEGTWO  768
#define BM_TWOPI   800
#define BM_FOUROPI 832
#define BM_PI4A    864
#define BM_PI4B    896
#define BM_PI4C    928
#define BM_S0      960
#define BM_S1      992
#define BM_S2      1024
#define BM_S3      1056
#define BM_S4      1088
#define BM_S5      1120
#define BM_C0      1152
#define BM_C1      1184
#define BM_C2      1216
#define BM_C3      1248
#define BM_C4      1280
#define BM_C5      1312
#define BM_IONE    1344
#define BM_ITWO    1376
#define BM_SIGN    1408
#define BM_MIX1    1440
#define BM_MIX2    1472
#define BM_GAMMA16 1504
#define BM_IFOUR   1536

// MUL64(Z, LO, HI, T, U) multiplies the four 64-bit lanes of Z by the
// constant whose low and high 32-bit halves sit at LO and HI, modulo
// 2^64: lo*lo + ((hi*lo + lo*hi) << 32). T and U are scratch.
#define MUL64(Z, LO, HI, T, U) \
	VPSRLQ $32, Z, T; \
	VPMULUDQ LO(R9), T, T; \
	VPMULUDQ HI(R9), Z, U; \
	VPADDQ U, T, T; \
	VPSLLQ $32, T, T; \
	VPMULUDQ LO(R9), Z, Z; \
	VPADDQ T, Z, Z

// MIX applies SplitMix64's output function to the four states in Z.
#define MIX(Z, T, U) \
	VPSRLQ $30, Z, T; \
	VPXOR T, Z, Z; \
	MUL64(Z, BM_C1LO, BM_C1HI, T, U); \
	VPSRLQ $27, Z, T; \
	VPXOR T, Z, Z; \
	MUL64(Z, BM_C2LO, BM_C2HI, T, U); \
	VPSRLQ $31, Z, T; \
	VPXOR T, Z, Z

// UNIFORM turns the four 53-bit integers in Z (a draw's top bits) into
// Float64's uniforms: each converted exactly, as 2^84 + hi*2^32 and
// 2^52 + lo built in the bit patterns, then (hi*2^32 - 2^52) + (2^52 + lo),
// then scaled by 2^-53.
#define UNIFORM(Z, T) \
	VPSRLQ $32, Z, T; \
	VPOR BM_MAG84(R9), T, T; \
	VPBLENDD $0xAA, BM_MAG52(R9), Z, Z; \
	VSUBPD BM_MAGSUB(R9), T, T; \
	VADDPD T, Z, Z; \
	VMULPD BM_TWOM53(R9), Z, Z

// func boxMuller4(dst *float32, blocks int, lanes *[8]uint64, std float32) int
//
// Writes up to blocks groups of four variates scaled by std, each the bits
// Norm()*std gives: the uniforms are lanes[0:4] and lanes[4:8] mixed, the
// states advancing by 8 draws a block; log follows math/log_amd64.s and
// cos math's sin.go operation for operation, with no fused multiply-adds.
// Stops before the first block holding a zero first uniform (Norm redraws
// it) and returns the number of blocks written.
TEXT ·boxMuller4(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ blocks+8(FP), CX
	MOVQ lanes+16(FP), SI
	VBROADCASTSS std+24(FP), X13
	LEAQ ·bmTab(SB), R9
	VMOVDQU (SI), Y14        // Y14 = states of the first uniforms
	VMOVDQU 32(SI), Y15      // Y15 = states of the second uniforms
	XORQ AX, AX

bmblock:
	CMPQ AX, CX
	JGE  bmdone
	VMOVDQA Y14, Y0
	MIX(Y0, Y1, Y2)
	VPSRLQ $11, Y0, Y0
	VPXOR Y2, Y2, Y2
	VPCMPEQQ Y2, Y0, Y1
	VPTEST Y1, Y1
	JNZ  bmdone              // a first uniform of 0: Norm redraws, leave it to Norm
	VMOVDQA Y15, Y12
	MIX(Y12, Y1, Y2)
	VPSRLQ $11, Y12, Y12
	VPADDQ BM_GAMMA8(R9), Y14, Y14
	VPADDQ BM_GAMMA8(R9), Y15, Y15
	UNIFORM(Y0, Y1)          // Y0 = u1
	UNIFORM(Y12, Y1)         // Y12 = u2

	// log(u1), as math/log_amd64.s: f1, k = frexp(u1) from the bits.
	VANDPD BM_MANT(R9), Y0, Y1
	VORPD BM_HALF(R9), Y1, Y1           // Y1 = f1
	VPSRLQ $52, Y0, Y2
	VPOR BM_MAG52(R9), Y2, Y2
	VSUBPD BM_KBIAS(R9), Y2, Y2         // Y2 = k
	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }
	VCMPPD $2, BM_HSQRT2(R9), Y1, Y3
	VANDPD BM_ONE(R9), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD BM_ONE(R9), Y3, Y3
	VMULPD Y3, Y1, Y1
	VSUBPD BM_ONE(R9), Y1, Y1           // Y1 = f
	VADDPD BM_TWO(R9), Y1, Y3
	VDIVPD Y3, Y1, Y3                   // Y3 = s = f / (2 + f)
	VMULPD Y3, Y3, Y4                   // Y4 = s2
	VMULPD Y4, Y4, Y5                   // Y5 = s4
	VMULPD BM_L7(R9), Y5, Y6
	VADDPD BM_L5(R9), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD BM_L3(R9), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD BM_L1(R9), Y6, Y6
	VMULPD Y6, Y4, Y4                   // Y4 = t1
	VMULPD BM_L6(R9), Y5, Y6
	VADDPD BM_L4(R9), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD BM_L2(R9), Y6, Y6
	VMULPD Y6, Y5, Y5                   // Y5 = t2
	VADDPD Y5, Y4, Y4                   // Y4 = R
	VMULPD BM_HALF(R9), Y1, Y6
	VMULPD Y1, Y6, Y6                   // Y6 = hfsq
	VADDPD Y6, Y4, Y4
	VMULPD Y4, Y3, Y3                   // s*(hfsq+R)
	VMULPD BM_LN2LO(R9), Y2, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y6, Y6
	VSUBPD Y1, Y6, Y6
	VMULPD BM_LN2HI(R9), Y2, Y2
	VSUBPD Y6, Y2, Y0                   // Y0 = log(u1)
	VMULPD BM_NEGTWO(R9), Y0, Y0
	VSQRTPD Y0, Y0                      // Y0 = sqrt(-2 log u1)

	// cos(2 pi u2), as math's sin.go: octant j = trunc(x*4/pi), bumped
	// to even, and z = x - j*pi/4 in three parts.
	VMULPD BM_TWOPI(R9), Y12, Y1        // Y1 = x
	VMULPD BM_FOUROPI(R9), Y1, Y2
	VCVTTPD2DQY Y2, X2
	VPMOVZXDQ X2, Y2
	VPAND BM_IONE(R9), Y2, Y3
	VPADDQ Y3, Y2, Y2                   // Y2 = j
	VPOR BM_MAG52(R9), Y2, Y3
	VSUBPD BM_MAG52(R9), Y3, Y3         // Y3 = y = float64(j)
	VMULPD BM_PI4A(R9), Y3, Y4
	VSUBPD Y4, Y1, Y1
	VMULPD BM_PI4B(R9), Y3, Y4
	VSUBPD Y4, Y1, Y1
	VMULPD BM_PI4C(R9), Y3, Y4
	VSUBPD Y4, Y1, Y1                   // Y1 = z
	VMULPD Y1, Y1, Y4                   // Y4 = zz
	// Both polynomials; octants 2 and 6 take the sine one.
	VMULPD BM_S0(R9), Y4, Y5
	VADDPD BM_S1(R9), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD BM_S2(R9), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD BM_S3(R9), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD BM_S4(R9), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD BM_S5(R9), Y5, Y5
	VMULPD Y4, Y1, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y1, Y5, Y5                   // Y5 = z + z*zz*P(zz)
	VMULPD BM_C0(R9), Y4, Y6
	VADDPD BM_C1(R9), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD BM_C2(R9), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD BM_C3(R9), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD BM_C4(R9), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD BM_C5(R9), Y6, Y6
	VMULPD Y4, Y4, Y7
	VMULPD Y7, Y6, Y6
	VMULPD BM_HALF(R9), Y4, Y7
	VMOVUPD BM_ONE(R9), Y8
	VSUBPD Y7, Y8, Y8
	VADDPD Y6, Y8, Y6                   // Y6 = 1 - 0.5*zz + zz*zz*Q(zz)
	VPAND BM_ITWO(R9), Y2, Y7
	VPCMPEQQ BM_ITWO(R9), Y7, Y7
	VBLENDVPD Y7, Y5, Y6, Y6
	// Negative in octants 2 and 4: bit 2 of j+2, moved to the sign.
	VPADDQ BM_ITWO(R9), Y2, Y7
	VPSLLQ $61, Y7, Y7
	VPAND BM_SIGN(R9), Y7, Y7
	VXORPD Y7, Y6, Y6                   // Y6 = cos(2 pi u2)

	VMULPD Y6, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMULPS X13, X0, X0
	VMOVUPS X0, (DI)
	ADDQ $16, DI
	INCQ AX
	JMP  bmblock

bmdone:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// MIX8 applies SplitMix64's output function to the eight states in Z and
// keeps each draw's top 53 bits, the integer Float64 scales: one VPMULLQ
// per multiply. T is scratch.
#define MIX8(Z, T) \
	VPSRLQ $30, Z, T; \
	VPXORQ T, Z, Z; \
	VPMULLQ.BCST BM_MIX1(R9), Z, Z; \
	VPSRLQ $27, Z, T; \
	VPXORQ T, Z, Z; \
	VPMULLQ.BCST BM_MIX2(R9), Z, Z; \
	VPSRLQ $31, Z, T; \
	VPXORQ T, Z, Z; \
	VPSRLQ $11, Z, Z

// func boxMuller8(dst *float32, blocks int, lanes *[16]uint64, std float32) int
//
// boxMuller4 eight lanes wide (AVX-512 F, DQ and VL): the same operations
// in the same order, each variate Norm()*std's bits, the states in
// lanes[0:8] and lanes[8:16] advancing by 16 draws a block. The integer
// multiplies are one VPMULLQ each, the exact 53-bit uniform one
// VCVTUQQ2PD, and log's reduction step and cos's octant select and sign
// act under mask registers instead of blends.
TEXT ·boxMuller8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ blocks+8(FP), CX
	MOVQ lanes+16(FP), SI
	VBROADCASTSS std+24(FP), Y13
	LEAQ ·bmTab(SB), R9
	VMOVDQU64 (SI), Z14      // Z14 = states of the first uniforms
	VMOVDQU64 64(SI), Z15    // Z15 = states of the second uniforms
	VBROADCASTSD BM_ONE(R9), Z9
	XORQ AX, AX

b8block:
	CMPQ AX, CX
	JGE  b8done
	VMOVDQA64 Z14, Z0
	MIX8(Z0, Z1)
	VPTESTNMQ Z0, Z0, K1
	KORTESTB K1, K1
	JNZ  b8done              // a first uniform of 0: Norm redraws, leave it to Norm
	VMOVDQA64 Z15, Z12
	MIX8(Z12, Z1)
	VPADDQ.BCST BM_GAMMA16(R9), Z14, Z14
	VPADDQ.BCST BM_GAMMA16(R9), Z15, Z15
	VCVTUQQ2PD Z0, Z0
	VMULPD.BCST BM_TWOM53(R9), Z0, Z0   // Z0 = u1
	VCVTUQQ2PD Z12, Z12
	VMULPD.BCST BM_TWOM53(R9), Z12, Z12 // Z12 = u2

	// log(u1), as math/log_amd64.s: f1, k = frexp(u1) from the bits.
	VANDPD.BCST BM_MANT(R9), Z0, Z1
	VORPD.BCST BM_HALF(R9), Z1, Z1      // Z1 = f1
	VPSRLQ $52, Z0, Z2
	VPORQ.BCST BM_MAG52(R9), Z2, Z2
	VSUBPD.BCST BM_KBIAS(R9), Z2, Z2    // Z2 = k
	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }
	VCMPPD.BCST $2, BM_HSQRT2(R9), Z1, K1
	VSUBPD Z9, Z2, K1, Z2
	VMULPD.BCST BM_TWO(R9), Z1, K1, Z1
	VSUBPD Z9, Z1, Z1                   // Z1 = f
	VADDPD.BCST BM_TWO(R9), Z1, Z3
	VDIVPD Z3, Z1, Z3                   // Z3 = s = f / (2 + f)
	VMULPD Z3, Z3, Z4                   // Z4 = s2
	VMULPD Z4, Z4, Z5                   // Z5 = s4
	VMULPD.BCST BM_L7(R9), Z5, Z6
	VADDPD.BCST BM_L5(R9), Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD.BCST BM_L3(R9), Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD.BCST BM_L1(R9), Z6, Z6
	VMULPD Z6, Z4, Z4                   // Z4 = t1
	VMULPD.BCST BM_L6(R9), Z5, Z6
	VADDPD.BCST BM_L4(R9), Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD.BCST BM_L2(R9), Z6, Z6
	VMULPD Z6, Z5, Z5                   // Z5 = t2
	VADDPD Z5, Z4, Z4                   // Z4 = R
	VMULPD.BCST BM_HALF(R9), Z1, Z6
	VMULPD Z1, Z6, Z6                   // Z6 = hfsq
	VADDPD Z6, Z4, Z4
	VMULPD Z4, Z3, Z3                   // s*(hfsq+R)
	VMULPD.BCST BM_LN2LO(R9), Z2, Z4
	VADDPD Z4, Z3, Z3
	VSUBPD Z3, Z6, Z6
	VSUBPD Z1, Z6, Z6
	VMULPD.BCST BM_LN2HI(R9), Z2, Z2
	VSUBPD Z6, Z2, Z0                   // Z0 = log(u1)
	VMULPD.BCST BM_NEGTWO(R9), Z0, Z0
	VSQRTPD Z0, Z0                      // Z0 = sqrt(-2 log u1)

	// cos(2 pi u2), as math's sin.go: octant j = trunc(x*4/pi), bumped
	// to even, and z = x - j*pi/4 in three parts.
	VMULPD.BCST BM_TWOPI(R9), Z12, Z1   // Z1 = x
	VMULPD.BCST BM_FOUROPI(R9), Z1, Z2
	VCVTTPD2QQ Z2, Z2
	VPANDQ.BCST BM_IONE(R9), Z2, Z3
	VPADDQ Z3, Z2, Z2                   // Z2 = j
	VCVTQQ2PD Z2, Z3                    // Z3 = y = float64(j)
	VMULPD.BCST BM_PI4A(R9), Z3, Z4
	VSUBPD Z4, Z1, Z1
	VMULPD.BCST BM_PI4B(R9), Z3, Z4
	VSUBPD Z4, Z1, Z1
	VMULPD.BCST BM_PI4C(R9), Z3, Z4
	VSUBPD Z4, Z1, Z1                   // Z1 = z
	VMULPD Z1, Z1, Z4                   // Z4 = zz
	// Both polynomials; octants 2 and 6 take the sine one.
	VMULPD.BCST BM_S0(R9), Z4, Z5
	VADDPD.BCST BM_S1(R9), Z5, Z5
	VMULPD Z4, Z5, Z5
	VADDPD.BCST BM_S2(R9), Z5, Z5
	VMULPD Z4, Z5, Z5
	VADDPD.BCST BM_S3(R9), Z5, Z5
	VMULPD Z4, Z5, Z5
	VADDPD.BCST BM_S4(R9), Z5, Z5
	VMULPD Z4, Z5, Z5
	VADDPD.BCST BM_S5(R9), Z5, Z5
	VMULPD Z4, Z1, Z6
	VMULPD Z6, Z5, Z5
	VADDPD Z1, Z5, Z5                   // Z5 = z + z*zz*P(zz)
	VMULPD.BCST BM_C0(R9), Z4, Z6
	VADDPD.BCST BM_C1(R9), Z6, Z6
	VMULPD Z4, Z6, Z6
	VADDPD.BCST BM_C2(R9), Z6, Z6
	VMULPD Z4, Z6, Z6
	VADDPD.BCST BM_C3(R9), Z6, Z6
	VMULPD Z4, Z6, Z6
	VADDPD.BCST BM_C4(R9), Z6, Z6
	VMULPD Z4, Z6, Z6
	VADDPD.BCST BM_C5(R9), Z6, Z6
	VMULPD Z4, Z4, Z7
	VMULPD Z7, Z6, Z6
	VMULPD.BCST BM_HALF(R9), Z4, Z7
	VSUBPD Z7, Z9, Z8
	VADDPD Z6, Z8, Z6                   // Z6 = 1 - 0.5*zz + zz*zz*Q(zz)
	VPTESTMQ.BCST BM_ITWO(R9), Z2, K2
	VMOVAPD Z5, K2, Z6
	// Negative in octants 2 and 4: bit 2 of j+2.
	VPADDQ.BCST BM_ITWO(R9), Z2, Z7
	VPTESTMQ.BCST BM_IFOUR(R9), Z7, K3
	VPXORQ.BCST BM_SIGN(R9), Z6, K3, Z6 // Z6 = cos(2 pi u2)

	VMULPD Z6, Z0, Z0
	VCVTPD2PS Z0, Y0
	VMULPS Y13, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	INCQ AX
	JMP  b8block

b8done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET
