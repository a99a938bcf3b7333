package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

func TestMatVecAgainstNaive(t *testing.T) {
	rng := NewRNG(1)
	m := NewMat(37, 53)
	rng.FillNormal(m.Data, 1)
	x := make(Vec, 53)
	rng.FillNormal(x, 1)

	got := make(Vec, 37)
	MatVec(got, m, x)

	for i := 0; i < m.Rows; i++ {
		var want float64
		for j := 0; j < m.Cols; j++ {
			want += float64(m.At(i, j)) * float64(x[j])
		}
		if !almostEqual(got[i], float32(want), 1e-3) {
			t.Fatalf("row %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestMatMulTAgainstMatVec(t *testing.T) {
	rng := NewRNG(2)
	w := NewMat(19, 31)
	rng.FillNormal(w.Data, 1)
	x := NewMat(7, 31)
	rng.FillNormal(x.Data, 1)

	dst := NewMat(7, 19)
	MatMulT(dst, x, w)

	row := make(Vec, 19)
	for b := 0; b < x.Rows; b++ {
		MatVec(row, w, x.Row(b))
		for o := range row {
			if !almostEqual(dst.At(b, o), row[o], 1e-4) {
				t.Fatalf("batch %d out %d: got %v want %v", b, o, dst.At(b, o), row[o])
			}
		}
	}
}

func TestMatVecParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(3)
	m := NewMat(512, 64) // large enough to trigger the parallel path
	rng.FillNormal(m.Data, 1)
	x := make(Vec, 64)
	rng.FillNormal(x, 1)

	par := make(Vec, 512)
	MatVec(par, m, x)

	prev := SetParallelism(1)
	defer SetParallelism(prev)
	ser := make(Vec, 512)
	MatVec(ser, m, x)

	for i := range par {
		if par[i] != ser[i] {
			t.Fatalf("row %d: parallel %v != serial %v", i, par[i], ser[i])
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		x := make(Vec, len(raw))
		for i, v := range raw {
			// clamp to a sane range; quick generates infinities otherwise
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			if v > 50 {
				v = 50
			}
			if v < -50 {
				v = -50
			}
			x[i] = v
		}
		Softmax(x)
		var sum float64
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := Vec{1, 2, 3, 4}
	y := Vec{11, 12, 13, 14}
	Softmax(x)
	Softmax(y)
	for i := range x {
		if !almostEqual(x[i], y[i], 1e-6) {
			t.Fatalf("softmax not shift invariant at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestRMSNormUnitScale(t *testing.T) {
	rng := NewRNG(4)
	x := make(Vec, 128)
	rng.FillNormal(x, 3)
	w := make(Vec, 128)
	for i := range w {
		w[i] = 1
	}
	dst := make(Vec, 128)
	RMSNorm(dst, x, w, 1e-6)
	var ss float64
	for _, v := range dst {
		ss += float64(v) * float64(v)
	}
	rms := math.Sqrt(ss / float64(len(dst)))
	if math.Abs(rms-1) > 1e-3 {
		t.Fatalf("normalised rms = %v, want ~1", rms)
	}
}

func TestRMSNormScaleEquivariance(t *testing.T) {
	// RMSNorm(k*x) == RMSNorm(x) for k > 0 (up to eps effects).
	rng := NewRNG(5)
	x := make(Vec, 64)
	rng.FillNormal(x, 1)
	w := make(Vec, 64)
	rng.FillNormal(w, 1)

	a := make(Vec, 64)
	RMSNorm(a, x, w, 0)

	scaled := make(Vec, 64)
	for i := range x {
		scaled[i] = x[i] * 7.5
	}
	b := make(Vec, 64)
	RMSNorm(b, scaled, w, 0)

	for i := range a {
		if !almostEqual(a[i], b[i], 1e-4) {
			t.Fatalf("RMSNorm not scale equivariant at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRoPEPreservesNorm(t *testing.T) {
	// Rotations preserve the L2 norm of each (even, odd) pair.
	rng := NewRNG(6)
	x := make(Vec, 64)
	rng.FillNormal(x, 1)
	var before float64
	for _, v := range x {
		before += float64(v) * float64(v)
	}
	RoPE(x, 16, 12345, 10000)
	var after float64
	for _, v := range x {
		after += float64(v) * float64(v)
	}
	if math.Abs(before-after) > 1e-2 {
		t.Fatalf("RoPE changed norm: %v -> %v", before, after)
	}
}

func TestRoPEPositionZeroIdentity(t *testing.T) {
	rng := NewRNG(7)
	x := make(Vec, 32)
	rng.FillNormal(x, 1)
	orig := make(Vec, 32)
	copy(orig, x)
	RoPE(x, 8, 0, 10000)
	for i := range x {
		if !almostEqual(x[i], orig[i], 1e-6) {
			t.Fatalf("RoPE at pos 0 is not identity at %d", i)
		}
	}
}

func TestArgMaxDeterministicTies(t *testing.T) {
	if got := ArgMax(Vec{1, 3, 3, 2}); got != 1 {
		t.Fatalf("ArgMax tie: got %d want 1", got)
	}
	if got := ArgMax(Vec{5}); got != 0 {
		t.Fatalf("ArgMax single: got %d want 0", got)
	}
}

func TestTopK(t *testing.T) {
	x := Vec{0.1, 0.9, 0.5, 0.7}
	got := TopKInto(nil, x, 3)
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopKInto: got %v want %v", got, want)
		}
	}
	if len(TopKInto(nil, x, 10)) != 4 {
		t.Fatalf("TopKInto should clamp k to len(x)")
	}
}

func TestDotUnrolledMatchesNaive(t *testing.T) {
	f := func(n uint8) bool {
		rng := NewRNG(uint64(n) + 100)
		a := make(Vec, int(n))
		b := make(Vec, int(n))
		rng.FillNormal(a, 1)
		rng.FillNormal(b, 1)
		var want float32
		for i := range a {
			want += a[i] * b[i]
		}
		return almostEqual(Dot(a, b), want, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	dst := make(Vec, 3)
	Add(dst, a, b)
	if dst[0] != 5 || dst[2] != 9 {
		t.Fatalf("Add wrong: %v", dst)
	}
}

func TestSiLUShape(t *testing.T) {
	x := Vec{-2, -1, 0, 1, 2}
	s := make(Vec, len(x))
	SiLUMul(s, x, Vec{1, 1, 1, 1, 1})
	if s[2] != 0 {
		t.Fatalf("SiLU(0) != 0: %v", s[2])
	}
	if s[4] <= s[3] {
		t.Fatalf("SiLU not increasing for positive inputs: %v", s)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG streams diverged for equal seeds")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Fatal("RNG streams identical for different seeds")
	}
}

func TestHash64Sensitivity(t *testing.T) {
	if Hash64(1, 2, 3) == Hash64(1, 2, 4) {
		t.Fatal("Hash64 insensitive to last word")
	}
	if Hash64(1, 2, 3) == Hash64(3, 2, 1) {
		t.Fatal("Hash64 insensitive to order")
	}
	if Hash64(1, 2, 3) != Hash64(1, 2, 3) {
		t.Fatal("Hash64 not deterministic")
	}
}

func TestMatHelpers(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At mismatch")
	}
	if m.Bytes() != 24 {
		t.Fatalf("Bytes: got %d want 24", m.Bytes())
	}
	r := m.Row(1)
	if r[2] != 7 {
		t.Fatal("Row does not alias storage")
	}
}

func BenchmarkMatVec4096x4096(b *testing.B) {
	rng := NewRNG(10)
	m := NewMat(1024, 1024)
	rng.FillNormal(m.Data, 1)
	x := make(Vec, 1024)
	rng.FillNormal(x, 1)
	dst := make(Vec, 1024)
	b.SetBytes(m.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, m, x)
	}
}
