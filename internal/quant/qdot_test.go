package quant

import (
	"math"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/tensor"
)

// seedMatVec reproduces the seed implementation's arithmetic exactly
// (dequantise-in-kernel with f32 block accumulation and f64 row
// accumulation) as the reference for the quantized-domain kernels.
func seedMatVec(q Mat, dst, x []float32) {
	switch q.Typ {
	case F32:
		for r := 0; r < q.Rows; r++ {
			var s0 float32
			row := q.f32[r*q.Cols : (r+1)*q.Cols]
			for i := range row {
				s0 += row[i] * x[i]
			}
			dst[r] = s0
		}
	case Q8:
		bpr := q.Cols / BlockSize
		for r := 0; r < q.Rows; r++ {
			var acc float64
			for b := 0; b < bpr; b++ {
				blk := r*bpr + b
				var sub float32
				base := blk * BlockSize
				xb := x[b*BlockSize : (b+1)*BlockSize]
				for i := 0; i < BlockSize; i++ {
					sub += float32(q.q8[base+i]) * xb[i]
				}
				acc += float64(q.scales[blk] * sub)
			}
			dst[r] = float32(acc)
		}
	case Q4:
		bpr := q.Cols / BlockSize
		for r := 0; r < q.Rows; r++ {
			var acc float64
			for b := 0; b < bpr; b++ {
				blk := r*bpr + b
				var sub float32
				base := blk * BlockSize
				xb := x[b*BlockSize : (b+1)*BlockSize]
				for i := 0; i < BlockSize; i += 2 {
					packed := q.q4[(base+i)/2]
					sub += (float32(packed&0x0f) - 8) * xb[i]
					sub += (float32(packed>>4) - 8) * xb[i+1]
				}
				acc += float64(q.scales[blk] * sub)
			}
			dst[r] = float32(acc)
		}
	}
}

// TestQuantKernelsMatchSeedArithmetic compares the dispatched kernels
// (AVX2 on capable hosts) against the seed's scalar arithmetic. The SIMD
// kernels reassociate the summation, so the comparison is to relative
// tolerance; the pure-Go fallbacks must match bitwise.
func TestQuantKernelsMatchSeedArithmetic(t *testing.T) {
	rng := tensor.NewRNG(21)
	for _, typ := range []Type{F32, Q8, Q4} {
		for _, shape := range [][2]int{{1, 32}, {3, 64}, {64, 64}, {160, 64}, {64, 160}} {
			rows, cols := shape[0], shape[1]
			w := tensor.NewMat(rows, cols)
			rng.FillNormal(w.Data, 0.1)
			q := Quantize(w, typ)
			x := make([]float32, cols)
			rng.FillNormal(x, 1)
			want := make([]float32, rows)
			seedMatVec(q, want, x)
			got := make([]float32, rows)
			q.MatVecQ(got, x)
			for r := range want {
				tol := 1e-4 * (1 + math.Abs(float64(want[r])))
				if d := math.Abs(float64(got[r] - want[r])); d > tol {
					t.Fatalf("%v %dx%d row %d: got %v want %v", typ, rows, cols, r, got[r], want[r])
				}
			}
		}
	}
}

// TestScalarKernelsBitIdenticalToSeed pins the pure-Go fallback to the
// seed arithmetic exactly.
func TestScalarKernelsBitIdenticalToSeed(t *testing.T) {
	rng := tensor.NewRNG(22)
	w := tensor.NewMat(7, 96)
	rng.FillNormal(w.Data, 0.2)
	x := make([]float32, 96)
	rng.FillNormal(x, 1)

	for _, typ := range []Type{Q8, Q4} {
		q := Quantize(w, typ)
		want := make([]float32, q.Rows)
		seedMatVec(q, want, x)
		bpr := q.Cols / BlockSize
		for r := 0; r < q.Rows; r++ {
			var got float32
			if typ == Q8 {
				got = dotQ8Go(q.scales[r*bpr:(r+1)*bpr], q.q8[r*q.Cols:(r+1)*q.Cols], x)
			} else {
				got = dotQ4Go(q.scales[r*bpr:(r+1)*bpr], q.q4[r*q.Cols/2:(r+1)*q.Cols/2], x)
			}
			if got != want[r] {
				t.Fatalf("%v row %d: scalar kernel %v != seed %v", typ, r, got, want[r])
			}
		}
	}
}

// TestDotQPublicAPI exercises the exported row kernels and their shape
// validation.
func TestDotQPublicAPI(t *testing.T) {
	rng := tensor.NewRNG(23)
	w := tensor.NewMat(1, 64)
	rng.FillNormal(w.Data, 0.3)
	x := make([]float32, 64)
	rng.FillNormal(x, 1)

	q8 := Quantize(w, Q8)
	want8 := make([]float32, 1)
	seedMatVec(q8, want8, x)
	got8 := DotQ8(q8.scales, q8.q8, x)
	if d := math.Abs(float64(got8 - want8[0])); d > 1e-4 {
		t.Fatalf("DotQ8 = %v, want %v", got8, want8[0])
	}

	q4 := Quantize(w, Q4)
	want4 := make([]float32, 1)
	seedMatVec(q4, want4, x)
	got4 := DotQ4(q4.scales, q4.q4, x)
	if d := math.Abs(float64(got4 - want4[0])); d > 1e-4 {
		t.Fatalf("DotQ4 = %v, want %v", got4, want4[0])
	}

	for _, fn := range []func(){
		func() { DotQ8(q8.scales, q8.q8, x[:33]) },
		func() { DotQ8(q8.scales[:1], q8.q8, x) },
		func() { DotQ4(q4.scales, q4.q4[:5], x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected shape-mismatch panic")
				}
			}()
			fn()
		}()
	}
}

// TestMatVecQParallelMatchesSerial checks the pooled row fan-out against
// the serial path.
func TestMatVecQParallelMatchesSerial(t *testing.T) {
	rng := tensor.NewRNG(24)
	w := tensor.NewMat(512, 64)
	rng.FillNormal(w.Data, 0.1)
	x := make([]float32, 64)
	rng.FillNormal(x, 1)
	for _, typ := range []Type{F32, Q8, Q4} {
		q := Quantize(w, typ)
		prev := tensor.SetParallelism(1)
		serial := make([]float32, q.Rows)
		q.MatVecQ(serial, x)
		tensor.SetParallelism(4)
		par := make([]float32, q.Rows)
		q.MatVecQ(par, x)
		tensor.SetParallelism(prev)
		for r := range serial {
			if serial[r] != par[r] {
				t.Fatalf("%v row %d: serial %v != parallel %v", typ, r, serial[r], par[r])
			}
		}
	}
}
