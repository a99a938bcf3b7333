//go:build amd64

package tensor

import "math"

// Implemented in simd_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// matVecFMA computes dst[r] = canonical dot of weight row r with x for
// rows >= 8 rows of cols floats (cols a positive multiple of 8), eight
// rows in flight; a final partial block recomputes the last eight rows.
//
//go:noescape
func matVecFMA(dst, w, x *float32, rows, cols int)

// matMulTFMA is the register-tiled multi-row variant: for n (even)
// activation rows of cols floats at x it writes dst[b*dstStride+o] for
// every weight row o < rows (rows >= 4), two activation rows by four
// weight rows in flight, each output in the same order as matVecFMA.
//
//go:noescape
func matMulTFMA(dst *float32, dstStride int, x *float32, n int, w *float32, rows, cols int)

// attnScores1 writes s[i] = scale * canonical dot of q (hd floats, hd a
// multiple of 8) with the K head at k + cells[i]*stride floats, for
// i < n, and returns the largest; it may also write up to the next
// multiple of 8 past n. attnScores2 does the same for two query heads
// sharing each K load and may write up to the next multiple of 4.
//
//go:noescape
func attnScores1(s, q, k *float32, stride int, cells *int, n, hd int, scale float32) float32

//go:noescape
func attnScores2(s0, s1, q0, q1, k *float32, stride int, cells *int, n, hd int, scale float32) (max0, max1 float32)

// softmaxExpFMA replaces the n8 (a positive multiple of 8) scores at p by
// exp(score - max) and returns their sum.
//
//go:noescape
func softmaxExpFMA(p *float32, n8 int, max float32) float32

// attnAccum1 writes out[0:hd] = (sum over i < n of p[i] * the V head at
// v + cells[i]*stride floats) / sum; attnAccum2 does the same for two
// heads sharing each V load.
//
//go:noescape
func attnAccum1(out, p, v *float32, stride int, cells *int, n, hd int, sum float32)

//go:noescape
func attnAccum2(out0, out1, p0, p1, v *float32, stride int, cells *int, n, hd int, sum0, sum1 float32)

// siluMulFMA computes dst[i] = a[i] / (1 + exp(-a[i])) * b[i] for n8 (a
// multiple of 8) elements.
//
//go:noescape
func siluMulFMA(dst, a, b *float32, n8 int)

// simdOn reports whether the AVX2+FMA kernels are safe to use on this CPU.
// Detection follows the Intel-documented protocol: the OS must have
// enabled XMM/YMM state saving (OSXSAVE + XGETBV) in addition to the CPU
// advertising AVX, FMA and AVX2.
var simdOn = detectSIMD()

func detectSIMD() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// expTab holds the vector exp's constants, each replicated across the
// eight lanes so the assembly can use them as memory operands. The order
// is fixed by the EXP_* offsets in simd_amd64.s.
var expTab = [...][8]float32{
	rep8(expLo), rep8(expHi), rep8(expLog2e), rep8(expLn2Hi), rep8(expLn2Lo),
	rep8(expC0), rep8(expC1), rep8(expC2), rep8(expC3), rep8(expC4), rep8(expC5),
	rep8(1), rep8(math.Float32frombits(127)), rep8(math.Float32frombits(1 << 31)),
}

// negInf pads score rows to a multiple of 8 (its exp is exactly 0) and
// seeds the score kernels' running maxima.
var negInf = float32(math.Inf(-1))

func rep8(c float32) [8]float32 { return [8]float32{c, c, c, c, c, c, c, c} }

// projAsm reports whether projections by m take the assembly kernels: a
// property of the weight shape alone, so a given matrix always computes
// through the same kernel whatever the batch or the ParallelRange split.
func projAsm(m Mat) bool {
	return simdOn && m.Rows >= 8 && m.Cols > 0 && m.Cols%8 == 0
}

// matVecAsm computes rows [lo, hi) of dst = m * x with matVecFMA.
func matVecAsm(dst Vec, m Mat, x Vec, lo, hi int) {
	if hi-lo >= 8 {
		matVecFMA(&dst[lo], &m.Data[lo*m.Cols], &x[0], hi-lo, m.Cols)
		return
	}
	if hi <= lo {
		return
	}
	// Fewer rows than a block: evaluate the block of eight that covers
	// them and keep the rows asked for.
	var blk [8]float32
	s := min(lo, m.Rows-8)
	matVecFMA(&blk[0], &m.Data[s*m.Cols], &x[0], 8, m.Cols)
	copy(dst[lo:hi], blk[lo-s:hi-s])
}

// matMulTAsm computes output columns [lo, hi) of the leading rows of
// dst = x * m^T with the register tile and returns how many rows it
// covered: the tile takes rows in pairs, so an odd last row (and any
// range narrower than a tile) is left to the caller's mat-vec loop,
// which computes the same bits.
func matMulTAsm(dst, x, m Mat, lo, hi int) int {
	pairs := x.Rows &^ 1
	if pairs == 0 || hi-lo < 4 {
		return 0
	}
	matMulTFMA(&dst.Data[lo], dst.Cols, &x.Data[0], pairs, &m.Data[lo*m.Cols], hi-lo, m.Cols)
	return pairs
}

// siluMulAsm runs siluMulFMA over whole groups of eight and pads the last
// partial group through a stack buffer, so every element sees the same
// vector arithmetic.
func siluMulAsm(dst, a, b Vec) {
	n8 := len(a) &^ 7
	if n8 > 0 {
		siluMulFMA(&dst[0], &a[0], &b[0], n8)
	}
	if n8 < len(a) {
		var ta, tb [8]float32
		copy(ta[:], a[n8:])
		copy(tb[:], b[n8:])
		siluMulFMA(&ta[0], &ta[0], &tb[0], 8)
		copy(dst[n8:], ta[:])
	}
}

// attentionAsm runs the fused kernel per KV head: query heads of a GQA
// group go through in pairs that share every K and V load (a group of odd
// size finishes with a single head). scores holds two padded score rows.
func attentionAsm(out, q Vec, k, v Mat, headDim int, cells []int, scale float32, scores Vec) {
	n := len(cells)
	n8 := len(scores) / 2
	s0, s1 := scores[:n8], scores[n8:]
	groups := (len(q) / headDim) / (k.Cols / headDim)
	for kvh := 0; kvh*headDim < k.Cols; kvh++ {
		kh, vh := &k.Data[kvh*headDim], &v.Data[kvh*headDim]
		h, end := kvh*groups, (kvh+1)*groups
		for ; h+2 <= end; h += 2 {
			q0, q1 := &q[h*headDim], &q[(h+1)*headDim]
			max0, max1 := attnScores2(&s0[0], &s1[0], q0, q1, kh, k.Cols, &cells[0], n, headDim, scale)
			for i := n; i < n8; i++ {
				s0[i], s1[i] = negInf, negInf
			}
			sum0 := softmaxExpFMA(&s0[0], n8, max0)
			sum1 := softmaxExpFMA(&s1[0], n8, max1)
			attnAccum2(&out[h*headDim], &out[(h+1)*headDim], &s0[0], &s1[0], vh, v.Cols, &cells[0], n, headDim, sum0, sum1)
		}
		if h < end {
			maxv := attnScores1(&s0[0], &q[h*headDim], kh, k.Cols, &cells[0], n, headDim, scale)
			for i := n; i < n8; i++ {
				s0[i] = negInf
			}
			sum := softmaxExpFMA(&s0[0], n8, maxv)
			attnAccum1(&out[h*headDim], &s0[0], vh, v.Cols, &cells[0], n, headDim, sum)
		}
	}
}
