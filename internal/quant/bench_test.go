package quant

import (
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/tensor"
)

func benchMat(b *testing.B, t Type, rows, cols int) (Mat, []float32, []float32) {
	b.Helper()
	rng := tensor.NewRNG(7)
	w := tensor.NewMat(rows, cols)
	rng.FillNormal(w.Data, 0.1)
	x := make([]float32, cols)
	rng.FillNormal(x, 1)
	return Quantize(w, t), x, make([]float32, rows)
}

func benchMatVec(b *testing.B, t Type) {
	q, x, dst := benchMat(b, t, 160, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.MatVecQ(dst, x)
	}
}

// The 160x64 shape is TinyConfig's FFN up/gate projection, the widest
// matvec on the decode path.
func BenchmarkMatVecF32(b *testing.B) { benchMatVec(b, F32) }
func BenchmarkMatVecQ8(b *testing.B)  { benchMatVec(b, Q8) }
func BenchmarkMatVecQ4(b *testing.B)  { benchMatVec(b, Q4) }
