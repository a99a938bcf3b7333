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

// matMulTFMA512 is matMulTFMA's AVX-512 tile, bit-equal to it: rows >= 8,
// two activation pairs by eight weight rows in flight, and one pair for
// the last pair of an n that is not a multiple of 4.
//
//go:noescape
func matMulTFMA512(dst *float32, dstStride int, x *float32, n int, w *float32, rows, cols int)

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

// softmaxExpFMA512 and siluMulFMA512 are softmaxExpFMA and siluMulFMA
// sixteen lanes wide, bit-equal to them.
//
//go:noescape
func softmaxExpFMA512(p *float32, n8 int, max float32) float32

//go:noescape
func siluMulFMA512(dst, a, b *float32, n8 int)

// attnAccum1 writes out[0:hd] = (sum over i < n of p[i] * the V head at
// v + cells[i]*stride floats) / sum; attnAccum2 does the same for two
// heads sharing each V load.
//
//go:noescape
func attnAccum1(out, p, v *float32, stride int, cells *int, n, hd int, sum float32)

//go:noescape
func attnAccum2(out0, out1, p0, p1, v *float32, stride int, cells *int, n, hd int, sum0, sum1 float32)

// packPanels packs the K and V heads at k and v (rows stride bytes
// apart, hd floats, hd a multiple of 8) of the 8*blocks cells listed at
// cells into a K panel kt and a V panel vt. attnPanel16 writes s[i] =
// scale * canonical dot of the 16-float head q with cell i of kt for
// i < n, and -inf to the rest of the last group of eight, and returns the
// largest score; attnPanelAccum16 is attnAccum1 over vt. See
// simd_amd64.s for the panel layouts.
//
//go:noescape
func packPanels(kt, vt, k, v *float32, stride int, cells *int, blocks, hd int)

//go:noescape
func attnPanel16(s, q, kt *float32, n int, scale float32) float32

//go:noescape
func attnPanelAccum16(out, p, vt *float32, n int, sum float32)

// siluMulFMA computes dst[i] = a[i] / (1 + exp(-a[i])) * b[i] for n8 (a
// multiple of 8) elements.
//
//go:noescape
func siluMulFMA(dst, a, b *float32, n8 int)

// boxMuller4 writes up to blocks groups of four Norm variates scaled by
// std to dst, the uniforms of variate i of the first group drawn from
// states lanes[i] and lanes[4+i], and returns how many groups it wrote:
// it stops before a group holding a first uniform of 0.
//
//go:noescape
func boxMuller4(dst *float32, blocks int, lanes *[8]uint64, std float32) int

// boxMuller8 is boxMuller4 over groups of eight, the uniforms of variate
// i of the first group drawn from states lanes[i] and lanes[8+i].
//
//go:noescape
func boxMuller8(dst *float32, blocks int, lanes *[16]uint64, std float32) int

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

// avx512On reports whether the AVX-512 tier runs: the projection tile
// (matMulTFMA512), the sixteen-lane exp (softmaxExpFMA512,
// siluMulFMA512) and the eight-lane Box-Muller (boxMuller8), each
// bit-equal to its AVX2 kernel, so hosts with and without it compute one
// model.
var avx512On = simdOn && detectAVX512()

// detectAVX512 reports whether the CPU advertises AVX512F, AVX512DQ and
// AVX512VL and the OS saves the opmask and ZMM state (XCR0 bits 5-7).
func detectAVX512() bool {
	_, b7, _, _ := cpuidex(7, 0)
	const (
		avx512f  = 1 << 16
		avx512dq = 1 << 17
		avx512vl = 1 << 31
	)
	if b7&avx512f == 0 || b7&avx512dq == 0 || b7&avx512vl == 0 {
		return false
	}
	eax, _ := xgetbv0()
	return eax&0xe6 == 0xe6 // XMM, YMM, opmask, ZMM0-15 upper halves and ZMM16-31
}

// expTab holds the vector exp's constants, each replicated across the
// eight lanes so the assembly can use them as memory operands (EXP16
// reads the first lane as an embedded broadcast). The order is fixed by
// the EXP_* offsets in simd_amd64.s.
var expTab = [...][8]float32{
	rep8(expLo), rep8(expHi), rep8(expLog2e), rep8(expLn2Hi), rep8(expLn2Lo),
	rep8(expC0), rep8(expC1), rep8(expC2), rep8(expC3), rep8(expC4), rep8(expC5),
	rep8(1), rep8(math.Float32frombits(127)), rep8(math.Float32frombits(1 << 31)),
}

// negInf pads score rows to a multiple of 8 (its exp is exactly 0) and
// seeds the score kernels' running maxima.
var negInf = float32(math.Inf(-1))

// laneMask[8-m:16-m] sets exactly the first m of eight lanes.
var laneMask = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

func rep8(c float32) [8]float32 { return [8]float32{c, c, c, c, c, c, c, c} }

// bmTab holds the Box-Muller kernels' constants as bit patterns, each
// replicated across four 64-bit lanes for boxMuller4 and read by
// boxMuller8 as an embedded broadcast of its first lane; the order is
// fixed by the BM_* offsets in simd_amd64.s. The log constants are
// math/log_amd64.s's, the cos ones math's sin.go's, written as their bits;
// the last four only the eight-lane kernel reads.
var bmTab = [...][4]uint64{
	rep4(8 * gamma % (1 << 64)), // eight draws
	rep4(mixC1 & 0xffffffff), rep4(mixC1 >> 32), rep4(mixC2 & 0xffffffff), rep4(mixC2 >> 32),
	rep4(0x4330000000000000), rep4(0x4530000000000000), // 2^52, 2^84
	repF(0x1p84 + 0x1p52), repF(0x1p-53),
	rep4(1<<52 - 1), repF(0.5), repF(0x1p52 + 1022),
	rep4(0x3fe6a09e667f3bcd), // Sqrt2/2
	repF(1), repF(2),
	rep4(0x3fe5555555555593), rep4(0x3fd999999997fa04), rep4(0x3fd2492494229359), rep4(0x3fcc71c51d8e78af),
	rep4(0x3fc7466496cb03de), rep4(0x3fc39a09d078c69f), rep4(0x3fc2f112df3e5244), // L1..L7
	rep4(0x3fe62e42fee00000), rep4(0x3dea39ef35793c76), // Ln2Hi, Ln2Lo
	repF(-2), repF(2 * math.Pi), repF(4 / math.Pi),
	rep4(0x3fe921fb40000000), rep4(0x3e64442d00000000), rep4(0x3ce8469898cc5170), // PI4A, PI4B, PI4C
	rep4(0x3de5d8fd1fd19ccd), rep4(0xbe5ae5e5a9291f5d), rep4(0x3ec71de3567d48a1),
	rep4(0xbf2a01a019bfdf03), rep4(0x3f8111111110f7d0), rep4(0xbfc5555555555548), // sin
	rep4(0xbda8fa49a0861a9b), rep4(0x3e21ee9d7b4e3f05), rep4(0xbe927e4f7eac4bc6),
	rep4(0x3efa01a019c844f5), rep4(0xbf56c16c16c14f91), rep4(0x3fa555555555554b), // cos
	rep4(1), rep4(2), rep4(1 << 63),
	rep4(mixC1), rep4(mixC2), rep4(16 * gamma % (1 << 64)), rep4(4), // whole multipliers, sixteen draws
}

func rep4(c uint64) [4]uint64 { return [4]uint64{c, c, c, c} }

func repF(c float64) [4]uint64 { return rep4(math.Float64bits(c)) }

// fillNormalAsm fills the leading whole groups of dst with the Box-Muller
// kernels — groups of eight with boxMuller8 where avx512On, then groups of
// four with boxMuller4 — advances r past the draws they took and returns
// how many variates they wrote: all of len(dst)&^3 unless a first uniform
// of 0 (2^-53 per variate) stopped a kernel, in which case Norm takes over
// at that group.
func fillNormalAsm(r *RNG, dst Vec, std float32) int {
	n := 0
	if avx512On && len(dst) >= 8 {
		var lanes [16]uint64
		seedLanes(r, lanes[:])
		blocks := len(dst) / 8
		done := boxMuller8(&dst[0], blocks, &lanes, std)
		r.Skip(16 * uint64(done))
		if n = 8 * done; done < blocks {
			return n
		}
	}
	blocks := (len(dst) - n) / 4
	if blocks == 0 {
		return n
	}
	var lanes [8]uint64
	seedLanes(r, lanes[:])
	done := boxMuller4(&dst[n], blocks, &lanes, std)
	r.Skip(8 * uint64(done))
	return n + 4*done
}

// seedLanes sets a kernel's lane states from r: variate i of its first
// group reads its uniforms from draws 2i and 2i+1, the states in
// lanes[i] and lanes[w+i] for a kernel w lanes wide.
func seedLanes(r *RNG, lanes []uint64) {
	w := len(lanes) / 2
	for i := range w {
		lanes[i] = r.state + uint64(2*i+1)*gamma
		lanes[w+i] = r.state + uint64(2*i+2)*gamma
	}
}

// projAsm reports whether projections by m take the assembly kernels
// (AVX2, with the AVX-512 tile for multi-row products where avx512On): a
// property of the weight shape alone, so a given matrix always computes
// through the same arithmetic whatever the batch or the ParallelRange
// split.
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
// dst = x * m^T with a register tile and returns how many rows it
// covered: the tiles take rows in pairs, so an odd last row (and any
// range narrower than four) is left to the caller's mat-vec loop. The
// AVX-512 tile, where avx512On, takes ranges at least eight weight rows
// wide, the AVX2 tile the rest; all three compute the same bits.
func matMulTAsm(dst, x, m Mat, lo, hi int) int {
	pairs := x.Rows &^ 1
	if pairs == 0 || hi-lo < 4 {
		return 0
	}
	if avx512On && hi-lo >= 8 {
		matMulTFMA512(&dst.Data[lo], dst.Cols, &x.Data[0], pairs, &m.Data[lo*m.Cols], hi-lo, m.Cols)
	} else {
		matMulTFMA(&dst.Data[lo], dst.Cols, &x.Data[0], pairs, &m.Data[lo*m.Cols], hi-lo, m.Cols)
	}
	return pairs
}

// softmaxExp replaces the n8 (a positive multiple of 8) scores at p by
// exp(score - max) and returns their sum, sixteen lanes wide where
// avx512On.
func softmaxExp(p *float32, n8 int, max float32) float32 {
	if avx512On {
		return softmaxExpFMA512(p, n8, max)
	}
	return softmaxExpFMA(p, n8, max)
}

// siluMulAsm runs siluMulFMA (siluMulFMA512 where avx512On) over whole
// groups of eight and pads the last partial group through a stack buffer,
// so every element sees the same vector arithmetic.
func siluMulAsm(dst, a, b Vec) {
	n8 := len(a) &^ 7
	if n8 > 0 {
		if avx512On {
			siluMulFMA512(&dst[0], &a[0], &b[0], n8)
		} else {
			siluMulFMA(&dst[0], &a[0], &b[0], n8)
		}
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
			sum0 := softmaxExp(&s0[0], n8, max0)
			sum1 := softmaxExp(&s1[0], n8, max1)
			attnAccum2(&out[h*headDim], &out[(h+1)*headDim], &s0[0], &s1[0], vh, v.Cols, &cells[0], n, headDim, sum0, sum1)
		}
		if h < end {
			maxv := attnScores1(&s0[0], &q[h*headDim], kh, k.Cols, &cells[0], n, headDim, scale)
			for i := n; i < n8; i++ {
				s0[i] = negInf
			}
			sum := softmaxExp(&s0[0], n8, maxv)
			attnAccum1(&out[h*headDim], &s0[0], vh, v.Cols, &cells[0], n, headDim, sum)
		}
	}
}

// attentionGroupAsm runs the panel kernels over 16-float heads: per KV
// head it packs the group's list once (K transposed, eight cells per
// vector, and V back to back), then gives every row its scores over its
// own prefix of the panel, the softmax, and the V sum. Rows with an
// empty list were cleared by the caller and are skipped.
func attentionGroupAsm(out, q Mat, rows, ns []int, k, v Mat, headDim int, cells []int, scale float32, sc *AttnScratch) {
	n := 0
	for _, m := range ns {
		n = max(n, m)
	}
	if n == 0 {
		return
	}
	n8 := (n + 7) &^ 7
	// The packer reads whole blocks of eight cells: pad the list with
	// its last cell.
	idx := sc.idx[:0]
	idx = append(idx, cells[:n]...)
	for len(idx) < n8 {
		idx = append(idx, cells[n-1])
	}
	sc.idx = idx
	kt, vt, s := grow(&sc.kt, n8*headDim), grow(&sc.vt, n8*headDim), grow(&sc.scores, n8)
	groups := (q.Cols / headDim) / (k.Cols / headDim)
	for kvh := 0; kvh*headDim < k.Cols; kvh++ {
		off := kvh * headDim
		packPanels(&kt[0], &vt[0], &k.Data[off], &v.Data[off], 4*k.Cols, &idx[0], n8/8, headDim)
		for j, r := range rows {
			m := ns[j]
			if m == 0 {
				continue
			}
			qr, or := q.Row(r), out.Row(r)
			for h := kvh * groups; h < (kvh+1)*groups; h++ {
				maxv := attnPanel16(&s[0], &qr[h*headDim], &kt[0], m, scale)
				sum := softmaxExp(&s[0], (m+7)&^7, maxv)
				attnPanelAccum16(&or[h*headDim], &s[0], &vt[0], m, sum)
			}
		}
	}
}
