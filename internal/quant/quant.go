// Package quant implements block quantization formats modelled on
// llama.cpp's Q8_0 and Q4_0 layouts, plus matrix-vector products that
// operate directly on quantized weights.
//
// The paper's evaluation runs every model in a quantized format (Q2_K
// through Q5_K, Table I/III). For the real-compute backend the precise
// k-quant bit packing is irrelevant — what matters is that (a) weights are
// block-quantized with a per-block scale, (b) dequantisation happens on the
// fly inside the matmul kernel, and (c) bytes-per-weight drops accordingly,
// which is what the cost model keys on. Q8_0 (8-bit, block 32) and Q4_0
// (4-bit, block 32) capture exactly that.
package quant

import (
	"fmt"
	"math"

	"github.com/pipeinfer/pipeinfer/internal/tensor"
)

// BlockSize is the number of weights per quantization block, matching
// llama.cpp's QK8_0/QK4_0.
const BlockSize = 32

// Type identifies a quantization format.
type Type int

const (
	// F32 means no quantization (4 bytes/weight).
	F32 Type = iota
	// Q8 is 8-bit block quantization (ca. 1.06 bytes/weight).
	Q8
	// Q4 is 4-bit block quantization (ca. 0.56 bytes/weight).
	Q4
)

// String returns the llama.cpp-style name of the format.
func (t Type) String() string {
	switch t {
	case F32:
		return "F32"
	case Q8:
		return "Q8_0"
	case Q4:
		return "Q4_0"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// BytesPerWeight reports the storage cost of one weight in format t,
// including the per-block scale overhead.
func (t Type) BytesPerWeight() float64 {
	switch t {
	case F32:
		return 4
	case Q8:
		return (BlockSize + 4) / float64(BlockSize) // int8 + f32 scale per block
	case Q4:
		return (BlockSize/2 + 4) / float64(BlockSize)
	default:
		panic("quant: unknown type")
	}
}

// Mat is a block-quantized row-major matrix. Each row is quantized
// independently in blocks of BlockSize weights; Cols must therefore be a
// multiple of BlockSize for Q8/Q4 matrices.
type Mat struct {
	Rows, Cols int
	Typ        Type

	// f32 storage (Typ == F32).
	f32 []float32
	// quantized storage: one scale per block plus packed values.
	scales []float32
	q8     []int8
	q4     []uint8 // two 4-bit values per byte
}

// NewMat allocates a rows x cols matrix in format t with every weight
// zero, to be filled a row at a time with QuantizeRow.
func NewMat(rows, cols int, t Type) Mat {
	if t != F32 && cols%BlockSize != 0 {
		panic(fmt.Sprintf("quant: Cols=%d not a multiple of block size %d", cols, BlockSize))
	}
	q := Mat{Rows: rows, Cols: cols, Typ: t}
	switch t {
	case F32:
		q.f32 = make([]float32, rows*cols)
	case Q8:
		q.scales = make([]float32, rows*cols/BlockSize)
		q.q8 = make([]int8, rows*cols)
	case Q4:
		q.scales = make([]float32, rows*cols/BlockSize)
		q.q4 = make([]uint8, rows*cols/2)
	}
	return q
}

// Quantize converts a dense matrix into format t.
func Quantize(m tensor.Mat, t Type) Mat {
	q := NewMat(m.Rows, m.Cols, t)
	for r := 0; r < m.Rows; r++ {
		q.QuantizeRow(r, m.Row(r))
	}
	return q
}

// QuantizeRow stores src (Cols values) as row r. Rows are whole blocks,
// so a matrix filled row by row equals one quantized at once, and
// distinct rows may be stored concurrently.
func (q Mat) QuantizeRow(r int, src []float32) {
	if len(src) != q.Cols {
		panic(fmt.Sprintf("quant: QuantizeRow of %d values into %d columns", len(src), q.Cols))
	}
	switch q.Typ {
	case F32:
		copy(q.f32[r*q.Cols:(r+1)*q.Cols], src)
	case Q8:
		for b0 := 0; b0 < q.Cols; b0 += BlockSize {
			blk := src[b0 : b0+BlockSize]
			at := r*q.Cols + b0
			scale := absMax(blk) / 127
			q.scales[at/BlockSize] = scale
			inv := float32(0)
			if scale != 0 {
				inv = 1 / scale
			}
			for i, v := range blk {
				q.q8[at+i] = int8(roundClamp(v*inv, -127, 127))
			}
		}
	case Q4:
		for b0 := 0; b0 < q.Cols; b0 += BlockSize {
			blk := src[b0 : b0+BlockSize]
			at := r*q.Cols + b0
			scale := absMax(blk) / 7
			q.scales[at/BlockSize] = scale
			inv := float32(0)
			if scale != 0 {
				inv = 1 / scale
			}
			for i := 0; i < BlockSize; i += 2 {
				lo := uint8(roundClamp(blk[i]*inv, -8, 7) + 8)
				hi := uint8(roundClamp(blk[i+1]*inv, -8, 7) + 8)
				q.q4[(at+i)/2] = lo | hi<<4
			}
		}
	}
}

func absMax(blk []float32) float32 {
	amax := float32(0)
	for _, v := range blk {
		if a := float32(math.Abs(float64(v))); a > amax {
			amax = a
		}
	}
	return amax
}

func roundClamp(v, lo, hi float32) float32 {
	r := float32(math.Round(float64(v)))
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}

// Dequantize expands the matrix back to dense f32 form.
func (q Mat) Dequantize() tensor.Mat {
	out := tensor.NewMat(q.Rows, q.Cols)
	for r := 0; r < q.Rows; r++ {
		q.DequantizeRow(r, out.Row(r))
	}
	return out
}

// DequantizeRow expands row r into dst (Cols values).
func (q Mat) DequantizeRow(r int, dst []float32) {
	if len(dst) != q.Cols {
		panic(fmt.Sprintf("quant: DequantizeRow of %d columns into %d values", q.Cols, len(dst)))
	}
	at := r * q.Cols
	switch q.Typ {
	case F32:
		copy(dst, q.f32[at:at+q.Cols])
	case Q8:
		for i := range dst {
			dst[i] = float32(q.q8[at+i]) * q.scales[(at+i)/BlockSize]
		}
	case Q4:
		for i := 0; i < q.Cols; i += 2 {
			packed, s := q.q4[(at+i)/2], q.scales[(at+i)/BlockSize]
			dst[i] = (float32(packed&0x0f) - 8) * s
			dst[i+1] = (float32(packed>>4) - 8) * s
		}
	}
}

// Bytes reports the storage footprint of the quantized matrix.
func (q Mat) Bytes() int64 {
	switch q.Typ {
	case F32:
		return int64(len(q.f32)) * 4
	case Q8:
		return int64(len(q.q8)) + int64(len(q.scales))*4
	case Q4:
		return int64(len(q.q4)) + int64(len(q.scales))*4
	default:
		return 0
	}
}

// MatVec computes dst = q * x, consuming the quantized weights directly.
// It is an alias of MatVecQ kept for API stability.
func (q Mat) MatVec(dst, x []float32) {
	q.MatVecQ(dst, x)
}

// MatVecQ is the quantized-domain matrix-vector product: every row is
// evaluated block by block against x via DotQ8/DotQ4 (AVX2 kernels on
// capable amd64 hosts) without ever staging a dequantized f32 row. Rows
// are parallelised over the tensor worker pool; the serial path performs
// zero heap allocations. The whole-shape check guards the raw-pointer
// SIMD kernels; only the per-row/per-block re-checks are skipped.
func (q Mat) MatVecQ(dst, x []float32) {
	if len(x) != q.Cols || len(dst) != q.Rows {
		panic(fmt.Sprintf("quant: MatVecQ shape mismatch: m=%dx%d x=%d dst=%d",
			q.Rows, q.Cols, len(x), len(dst)))
	}
	switch q.Typ {
	case F32:
		m := tensor.Mat{Rows: q.Rows, Cols: q.Cols, Data: q.f32}
		tensor.MatVecInto(dst, m, x)
	case Q8:
		if !tensor.ParallelActive(q.Rows) {
			q.matVecQ8Range(dst, x, 0, q.Rows)
			return
		}
		tensor.ParallelRange(q.Rows, func(lo, hi int) { q.matVecQ8Range(dst, x, lo, hi) })
	case Q4:
		if !tensor.ParallelActive(q.Rows) {
			q.matVecQ4Range(dst, x, 0, q.Rows)
			return
		}
		tensor.ParallelRange(q.Rows, func(lo, hi int) { q.matVecQ4Range(dst, x, lo, hi) })
	}
}

// MatMulTQ is the multi-row entry the forward pass calls for every
// projection: dst = x * q^T for n activation rows (x is n x Cols, dst is
// n x Rows). F32 weights go through tensor.MatMulT's register tile;
// Q8/Q4 keep their row kernels, one MatVecQ per activation row. Either
// way row b of dst is bit-identical to MatVecQ(dst.Row(b), x.Row(b)).
func (q Mat) MatMulTQ(dst, x tensor.Mat) {
	if q.Typ == F32 {
		tensor.MatMulT(dst, x, tensor.Mat{Rows: q.Rows, Cols: q.Cols, Data: q.f32})
		return
	}
	if dst.Rows != x.Rows {
		panic(fmt.Sprintf("quant: MatMulTQ row mismatch: x=%d dst=%d", x.Rows, dst.Rows))
	}
	for b := 0; b < x.Rows; b++ {
		q.MatVecQ(dst.Row(b), x.Row(b))
	}
}

func (q Mat) matVecQ8Range(dst, x []float32, lo, hi int) {
	bpr := q.Cols / BlockSize
	for r := lo; r < hi; r++ {
		dst[r] = dotQ8Kernel(q.scales[r*bpr:(r+1)*bpr], q.q8[r*q.Cols:(r+1)*q.Cols], x)
	}
}

func (q Mat) matVecQ4Range(dst, x []float32, lo, hi int) {
	bpr := q.Cols / BlockSize
	for r := lo; r < hi; r++ {
		dst[r] = dotQ4Kernel(q.scales[r*bpr:(r+1)*bpr], q.q4[r*q.Cols/2:(r+1)*q.Cols/2], x)
	}
}

// DotQ8 computes the inner product of one Q8_0 row (len(x)/BlockSize
// blocks: per-block scales plus int8 weights) with a dense vector, in the
// quantized domain.
func DotQ8(scales []float32, q []int8, x []float32) float32 {
	if len(x)%BlockSize != 0 || len(q) != len(x) || len(scales) != len(x)/BlockSize {
		panic(fmt.Sprintf("quant: DotQ8 shape mismatch: scales=%d q=%d x=%d",
			len(scales), len(q), len(x)))
	}
	if len(x) == 0 {
		return 0
	}
	return dotQ8Kernel(scales, q, x)
}

// DotQ4 is DotQ8 for the Q4_0 packing (two weights per byte).
func DotQ4(scales []float32, q []uint8, x []float32) float32 {
	if len(x)%BlockSize != 0 || len(q) != len(x)/2 || len(scales) != len(x)/BlockSize {
		panic(fmt.Sprintf("quant: DotQ4 shape mismatch: scales=%d q=%d x=%d",
			len(scales), len(q), len(x)))
	}
	if len(x) == 0 {
		return 0
	}
	return dotQ4Kernel(scales, q, x)
}

// dotQ8Go is the portable Q8_0 row dot, arithmetic-identical to the seed
// implementation: f32 accumulation inside a block, f64 across blocks.
func dotQ8Go(scales []float32, q []int8, x []float32) float32 {
	var acc float64
	for b := range scales {
		qb := q[b*BlockSize : (b+1)*BlockSize]
		xb := x[b*BlockSize : (b+1)*BlockSize][:BlockSize]
		var sub float32
		for i := range qb {
			sub += float32(qb[i]) * xb[i]
		}
		acc += float64(scales[b] * sub)
	}
	return float32(acc)
}

// dotQ4Go is the portable Q4_0 row dot, arithmetic-identical to the seed.
func dotQ4Go(scales []float32, q []uint8, x []float32) float32 {
	var acc float64
	for b := range scales {
		qb := q[b*BlockSize/2 : (b+1)*BlockSize/2]
		xb := x[b*BlockSize : (b+1)*BlockSize][:BlockSize]
		var sub float32
		for i := 0; i < BlockSize; i += 2 {
			packed := qb[i/2]
			sub += (float32(packed&0x0f) - 8) * xb[i]
			sub += (float32(packed>>4) - 8) * xb[i+1]
		}
		acc += float64(scales[b] * sub)
	}
	return float32(acc)
}
