// Package tensor provides the dense float32 tensor operations that back the
// pure-Go transformer used by the real-compute backend.
//
// The package is deliberately small and specialised: everything the decoder
// stack needs (matrix-vector and matrix-matrix products, fused attention,
// RMSNorm, softmax, rotary position embeddings, the SwiGLU gate) and
// nothing more. The forward pass runs on three kernels, each AVX2/FMA
// assembly on amd64 hosts that pass the CPUID probe with a portable Go
// twin everywhere else (kernels.go): the blocked projection kernel behind
// MatVec / MatMulT, the fused attention kernel behind Attention, and
// SiLUMul, which shares attention's vectorised float32 exp.
//
// Canonical-order contract: every output element is computed in one fixed
// arithmetic order — for a projection, one 8-lane accumulator walked over
// k ascending and folded by one fixed reduction tree (see dotGo) — and
// blocking only chooses which independent outputs are in flight together.
// A row's bits therefore never depend on how many rows ride beside it,
// how a prefill was chunked, or how ParallelRange split the weight rows:
// MatMulT row b equals MatVec of row b bit for bit, which is what keeps
// batched, chunked and recomputed evaluations bit-identical to the serial
// reference by construction. MatMulT's own advantage is register tiling:
// each weight row loaded from cache is applied to two activation rows,
// and the forward pass calls it for every projection. The assembly and
// the Go twin each honour the contract; they are not bit-equal to each
// other (FMA rounds once, the twin twice), so results are deterministic
// per process, not across hosts.
//
// Matrix products are parallelised across weight rows with a persistent
// worker pool (see ParallelRange / SetParallelism). Hot-path contract:
// with SetParallelism(1), every kernel in this package runs inline on the
// calling goroutine and performs zero heap allocations (the property
// TestDecodeStepAllocs locks in). With parallelism > 1 the only per-call
// allocation is the chunk closure handed to the worker pool.
package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense float32 vector.
type Vec = []float32

// Mat is a dense row-major matrix: Rows x Cols float32 values.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// NewMat allocates a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns the i-th row of m as a slice aliasing the matrix storage.
func (m Mat) Row(i int) Vec {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// RowSpan returns rows [lo, hi) of m as a matrix aliasing its storage.
func (m Mat) RowSpan(lo, hi int) Mat {
	return Mat{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// At returns the element at row i, column j.
func (m Mat) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m Mat) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m Mat) Clone() Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Bytes reports the storage footprint of the matrix in bytes.
func (m Mat) Bytes() int64 { return int64(len(m.Data)) * 4 }

// MatVec computes dst = m * x where x has length m.Cols and dst has length
// m.Rows. It parallelises across output rows.
func MatVec(dst Vec, m Mat, x Vec) {
	MatVecInto(dst, m, x)
}

// MatVecInto is the allocation-free MatVec core. A cheap whole-shape
// check still guards the entry (the SIMD kernels walk raw pointers, so a
// mis-sized x must fail deterministically rather than read out of
// bounds); what it skips are the per-row and per-element re-checks.
func MatVecInto(dst Vec, m Mat, x Vec) {
	if len(x) != m.Cols || len(dst) != m.Rows || len(m.Data) < m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: MatVecInto shape mismatch: m=%dx%d (%d values) x=%d dst=%d",
			m.Rows, m.Cols, len(m.Data), len(x), len(dst)))
	}
	if !ParallelActive(m.Rows) {
		matVecRange(dst, m, x, 0, m.Rows)
		return
	}
	ParallelRange(m.Rows, func(lo, hi int) { matVecRange(dst, m, x, lo, hi) })
}

// matVecRange computes output rows [lo, hi) of dst = m * x.
func matVecRange(dst Vec, m Mat, x Vec, lo, hi int) {
	if projAsm(m) {
		matVecAsm(dst, m, x, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		dst[i] = dotGo(m.Row(i), x)
	}
}

// MatMulT computes dst = x * m^T for a batch of row vectors: x is n x m.Cols,
// dst is n x m.Rows. This is the layout used by transformer weight
// application (weights stored output-major, as llama.cpp does) and the
// entry point the forward pass uses for every projection: a register tile
// applies each loaded weight row to two activation rows. Row b of dst is
// bit-identical to MatVec(dst.Row(b), m, x.Row(b)) for every batch width.
func MatMulT(dst Mat, x Mat, m Mat) {
	if x.Cols != m.Cols || dst.Rows != x.Rows || dst.Cols != m.Rows ||
		len(x.Data) < x.Rows*x.Cols || len(m.Data) < m.Rows*m.Cols || len(dst.Data) < dst.Rows*dst.Cols {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch: x=%dx%d m=%dx%d dst=%dx%d",
			x.Rows, x.Cols, m.Rows, m.Cols, dst.Rows, dst.Cols))
	}
	if !ParallelActive(m.Rows) {
		matMulTRange(dst, x, m, 0, m.Rows)
		return
	}
	ParallelRange(m.Rows, func(lo, hi int) { matMulTRange(dst, x, m, lo, hi) })
}

// matMulTRange computes output columns [lo, hi) of every row of dst.
func matMulTRange(dst Mat, x Mat, m Mat, lo, hi int) {
	b := 0
	if projAsm(m) {
		b = matMulTAsm(dst, x, m, lo, hi)
	}
	for ; b < x.Rows; b++ {
		matVecRange(dst.Row(b), m, x.Row(b), lo, hi)
	}
}

// Dot returns the inner product of a and b, which must have equal length,
// in the canonical order every projection output is computed in.
func Dot(a, b Vec) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d != %d", len(a), len(b)))
	}
	return dotGo(a, b)
}

// SIMDAccelerated reports whether this process dispatches its kernels to
// the AVX2/FMA assembly. Sibling packages (quant) ask on every call so
// every kernel family flips together.
func SIMDAccelerated() bool { return simdOn }

// Add computes dst = a + b elementwise.
func Add(dst, a, b Vec) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: Add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Mul computes dst = a * b elementwise (Hadamard product).
func Mul(dst, a, b Vec) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: Mul length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// Scale multiplies every element of dst by alpha.
func Scale(dst Vec, alpha float32) {
	for i := range dst {
		dst[i] *= alpha
	}
}

// RMSNorm writes the root-mean-square normalisation of x, scaled by weight
// w, into dst: dst[i] = x[i] / rms(x) * w[i]. eps stabilises the division.
func RMSNorm(dst, x, w Vec, eps float32) {
	if len(dst) != len(x) || len(x) != len(w) {
		panic("tensor: RMSNorm length mismatch")
	}
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1.0 / math.Sqrt(ss/float64(len(x))+float64(eps)))
	for i := range dst {
		dst[i] = x[i] * inv * w[i]
	}
}

// Softmax converts x to a probability distribution in place using the
// numerically stable max-shift formulation.
func Softmax(x Vec) {
	if len(x) == 0 {
		return
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		e := float32(math.Exp(float64(v - maxv)))
		x[i] = e
		sum += float64(e)
	}
	inv := float32(1.0 / sum)
	for i := range x {
		x[i] *= inv
	}
}

// GELU applies the tanh-approximated Gaussian error linear unit in place.
func GELU(x Vec) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		t := float64(c) * (float64(v) + 0.044715*float64(v)*float64(v)*float64(v))
		x[i] = float32(0.5 * float64(v) * (1.0 + math.Tanh(t)))
	}
}

// ArgMax returns the index of the largest element of x. Ties resolve to the
// lowest index so greedy sampling is deterministic.
func ArgMax(x Vec) int {
	if len(x) == 0 {
		panic("tensor: ArgMax of empty vector")
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// TopK returns the indices of the k largest elements of x in descending
// value order. k is clamped to len(x). Ties resolve to the lowest index.
func TopK(x Vec, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	return TopKInto(make([]int, 0, k), x, k)
}

// TopKInto is TopK over a caller-provided index slice, appending the
// result into idx[:0] and returning it — the allocation-free variant the
// draft proposer calls once per speculation step. A small partial
// insertion selection replaces the per-call map the previous
// implementation used: k is tiny (speculation branch width), so the
// shifted prefix stays within a cache line.
func TopKInto(idx []int, x Vec, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	idx = idx[:0]
	if k <= 0 {
		return idx
	}
	for i, v := range x {
		n := len(idx)
		if n == k {
			// Strict comparison keeps the earliest index on ties,
			// matching repeated-scan selection.
			if v <= x[idx[n-1]] {
				continue
			}
		} else {
			idx = append(idx, 0)
			n++
		}
		j := n - 1
		for j > 0 && v > x[idx[j-1]] {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = i
	}
	return idx
}
