package tensor

import (
	"fmt"
	"math"
)

// The portable Go twins of the three forward-pass kernels (the fourth,
// Box-Muller's, is the Norm loop in rng.go), and the
// exported entry points that choose between a twin and the amd64
// assembly. Each twin honours the canonical-order contract on its own
// (see the package comment); it is what runs off amd64, on amd64 hosts
// without AVX2+FMA, and for shapes the assembly does not take (columns
// or head dimension not a multiple of 8, fewer than 8 weight rows) —
// a choice that depends only on the weight shape and the CPU, never on
// the batch.

// dotGo is the canonical projection output: one 8-lane accumulator
// walked over k ascending (the last partial group zero-padded), folded
// by the fixed tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). The assembly
// computes the same expression with fused multiply-adds.
func dotGo(w, x Vec) float32 {
	x = x[:len(w)] // bounds-check hint
	var l0, l1, l2, l3, l4, l5, l6, l7 float32
	k := 0
	for ; k+8 <= len(w); k += 8 {
		ww, xx := w[k:k+8:k+8], x[k:k+8:k+8]
		l0 += ww[0] * xx[0]
		l1 += ww[1] * xx[1]
		l2 += ww[2] * xx[2]
		l3 += ww[3] * xx[3]
		l4 += ww[4] * xx[4]
		l5 += ww[5] * xx[5]
		l6 += ww[6] * xx[6]
		l7 += ww[7] * xx[7]
	}
	if k < len(w) {
		var ww, xx [8]float32
		copy(ww[:], w[k:])
		copy(xx[:], x[k:])
		l0 += ww[0] * xx[0]
		l1 += ww[1] * xx[1]
		l2 += ww[2] * xx[2]
		l3 += ww[3] * xx[3]
		l4 += ww[4] * xx[4]
		l5 += ww[5] * xx[5]
		l6 += ww[6] * xx[6]
	}
	return ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
}

// Constants of the float32 exp shared by the attention softmax and
// SiLUMul: x = n*ln2 + r with n = round(x*log2e) and ln2 split into a
// short high part and a correction so n*ln2Hi is exact, then a degree-5
// polynomial for (e^r - 1 - r)/r^2 on |r| <= ln2/2 (Cephes-style;
// coefficients as in SLEEF's 1-ulp expf) and a scale by 2^n built in the
// exponent field. Inputs below expLo flush to exactly 0 and inputs above
// expHi clamp, so every result is finite and non-negative.
const (
	expLog2e = 1.44269504088896341
	expLn2Hi = 0.693145751953125
	expLn2Lo = 1.428606765330187045e-06
	expC0    = 0.000198527617612853646278381
	expC1    = 0.00139304355252534151077271
	expC2    = 0.00833336077630519866943359
	expC3    = 0.0416664853692054748535156
	expC4    = 0.166666671633720397949219
	expC5    = 0.5
	expLo    = -87.3 // e^x stays a normal float32 down to here
	expHi    = 88.3  // 2^127 * e^r stays finite up to here
)

// expGo is the portable twin of the vector exp.
func expGo(x float32) float32 {
	if x < expLo {
		return 0
	}
	if x > expHi {
		x = expHi
	}
	n := float32(math.RoundToEven(float64(x * expLog2e)))
	r := x - n*expLn2Hi
	r -= n * expLn2Lo
	u := float32(expC0)
	u = u*r + expC1
	u = u*r + expC2
	u = u*r + expC3
	u = u*r + expC4
	u = u*r + expC5
	u = u*(r*r) + r + 1
	return u * math.Float32frombits(uint32(int32(n)+127)<<23)
}

// SiLUMul computes dst[i] = SiLU(a[i]) * b[i] = a[i] / (1 + e^-a[i]) * b[i]
// in a single pass — the fused SwiGLU gate (SiLU(gate) ⊙ up) the decoder
// MLP applies every layer. Every element goes through the same
// arithmetic whatever its index and the vector length, so the pass may
// run over a whole row-batched activation matrix at once.
func SiLUMul(dst, a, b Vec) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: SiLUMul length mismatch")
	}
	if simdOn {
		siluMulAsm(dst, a, b)
		return
	}
	b = b[:len(a)]
	for i, v := range a {
		dst[i] = v / (1 + expGo(-v)) * b[i]
	}
}

// Attention is the fused attention kernel: for one token row it computes,
// per KV head, the softmax(q·K*scale)-weighted sum of V over the visible
// cells for every query head of the head's GQA group, and writes the
// concatenated head outputs to out. q and out hold nHeads*headDim floats
// (query heads in order, so group g owns heads [g*groups, (g+1)*groups));
// k and v are the layer's cell-indexed K/V matrices, nKVHeads*headDim
// wide; cells lists the visible cell ids in the order they accumulate
// (position order — see kvpage.VisibleCells). The scores never leave
// scratch, which grows as needed and is reused across calls; the softmax
// is max-shifted, exponentiated with the package's float32 exp, and
// normalised once on the head-sized output instead of on every score.
//
// The result depends only on this row's q, cells and the K/V rows they
// name — never on which other rows the caller evaluates around it.
func Attention(out, q Vec, k, v Mat, headDim int, cells []int, scale float32, scratch *Vec) {
	checkAttention(len(out), len(q), k, v, headDim)
	checkCells(cells, k.Rows)
	attendRow(out, q, k, v, headDim, cells, scale, scratch)
}

// AttnScratch is AttentionGroup's working storage, grown as needed and
// reused across calls: the score rows, one KV head's packed K and V
// panels, and the list padded to whole blocks of eight cells.
type AttnScratch struct {
	scores, kt, vt Vec
	idx            []int
}

// panelRows is the smallest group AttentionGroup packs panels for. Below
// it the pack costs more than the panel kernels save, so smaller groups
// take Attention's per-row kernel. Measured with TinyConfig heads over
// 260-cell lists in 16-cell pages (Xeon, AVX2 kernels), panel against
// per-row time per row: 1.54x at one row, 1.11x at two, 0.93x at three,
// 0.84x at four, 0.67x at 64.
const panelRows = 3

// AttentionGroup is Attention for rows of q that attend over prefixes of
// one visible list: for each j, out.Row(rows[j]) receives exactly the bits
// Attention(out.Row(rows[j]), q.Row(rows[j]), k, v, headDim,
// cells[:ns[j]], scale, ·) writes. Rows of one sequence set in a batch are
// such a group (see kvpage.VisibleGroups).
//
// On the assembly kernels a group of panelRows rows or more with 16-float
// heads (TinyConfig's, the only head size the forward pass runs) packs
// the list once per KV head — K transposed, eight cells per vector, V
// back to back — and computes each row's scores eight cells per vector
// and its V sum with no per-cell address arithmetic. Every score, softmax
// and output element keeps the per-row kernel's arithmetic order: lane l
// of the dot product's accumulator is a vector of its own, the eight fold
// in REDUCE8's tree, and V goes into the same four interleaved
// accumulators. Smaller groups, other head sizes, and every host on the
// portable twin run the per-row kernel. Either way the cell ids are
// checked once per call.
func AttentionGroup(out, q Mat, rows, ns []int, k, v Mat, headDim int, cells []int, scale float32, sc *AttnScratch) {
	checkAttention(out.Cols, q.Cols, k, v, headDim)
	if len(rows) != len(ns) {
		panic(fmt.Sprintf("tensor: AttentionGroup has %d rows but %d list lengths", len(rows), len(ns)))
	}
	n := 0
	for j, r := range rows {
		if ns[j] < 0 || ns[j] > len(cells) || r < 0 || r >= q.Rows || r >= out.Rows {
			panic(fmt.Sprintf("tensor: AttentionGroup row %d attends over %d of %d cells (q %d rows, out %d)",
				r, ns[j], len(cells), q.Rows, out.Rows))
		}
		n = max(n, ns[j])
		if ns[j] == 0 {
			clear(out.Row(r))
		}
	}
	checkCells(cells[:n], k.Rows)
	if simdOn && headDim == 16 && len(rows) >= panelRows {
		attentionGroupAsm(out, q, rows, ns, k, v, headDim, cells, scale, sc)
		return
	}
	for j, r := range rows {
		attendRow(out.Row(r), q.Row(r), k, v, headDim, cells[:ns[j]], scale, &sc.scores)
	}
}

// checkAttention panics unless q and out rows of the given widths fit the
// K/V matrices: whole heads, a whole number of query heads per KV head.
func checkAttention(outLen, qLen int, k, v Mat, headDim int) {
	if headDim <= 0 || qLen%headDim != 0 || k.Cols%headDim != 0 || k.Cols == 0 ||
		outLen != qLen || v.Cols != k.Cols || v.Rows != k.Rows ||
		(qLen/headDim)%(k.Cols/headDim) != 0 ||
		len(k.Data) < k.Rows*k.Cols || len(v.Data) < v.Rows*v.Cols {
		panic(fmt.Sprintf("tensor: Attention shape mismatch: q=%d out=%d k=%dx%d v=%dx%d headDim=%d",
			qLen, outLen, k.Rows, k.Cols, v.Rows, v.Cols, headDim))
	}
}

// checkCells panics if a cell id falls outside the rows-row K/V store: the
// kernels index K/V rows by raw cell id, so a bad id must fail here rather
// than read out of bounds (a negative id wraps to huge).
func checkCells(cells []int, rows int) {
	var top uint
	for _, c := range cells {
		top = max(top, uint(c))
	}
	if len(cells) > 0 && top >= uint(rows) {
		panic(fmt.Sprintf("tensor: Attention cell id outside the %d-row K/V store", rows))
	}
}

// grow returns (*buf)[:n], reallocating when the capacity falls short.
func grow(buf *Vec, n int) Vec {
	if cap(*buf) < n {
		*buf = make(Vec, max(n, 2*cap(*buf), 128))
	}
	return (*buf)[:n]
}

// attendRow is Attention past its checks.
func attendRow(out, q Vec, k, v Mat, headDim int, cells []int, scale float32, scratch *Vec) {
	n := len(cells)
	if n == 0 {
		clear(out)
		return
	}
	n8 := (n + 7) &^ 7
	scores := grow(scratch, 2*n8)
	if simdOn && headDim%8 == 0 {
		attentionAsm(out, q, k, v, headDim, cells, scale, scores)
		return
	}
	groups := (len(q) / headDim) / (k.Cols / headDim)
	for h := 0; h*headDim < len(q); h++ {
		off := (h / groups) * headDim
		attendGo(out[h*headDim:(h+1)*headDim], q[h*headDim:(h+1)*headDim], k, v, off, cells, scale, scores[:n])
	}
}

// attendGo is the portable twin of the fused kernel for one query head:
// scores in the canonical dot order, max shift, expGo, the weighted V sum
// accumulated over cells in list order, one division by the score sum.
func attendGo(out, q Vec, k, v Mat, off int, cells []int, scale float32, scores Vec) {
	hd := len(q)
	maxv := float32(math.Inf(-1))
	for i, c := range cells {
		s := dotGo(q, k.Data[c*k.Cols+off:c*k.Cols+off+hd]) * scale
		scores[i] = s
		if s > maxv {
			maxv = s
		}
	}
	clear(out)
	var sum float32
	for i, c := range cells {
		p := expGo(scores[i] - maxv)
		sum += p
		vh := v.Data[c*v.Cols+off : c*v.Cols+off+hd]
		for j := range out {
			out[j] += p * vh[j]
		}
	}
	for j := range out {
		out[j] /= sum
	}
}
