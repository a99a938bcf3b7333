package tensor

import (
	"math"
	"testing"
)

// bothKernels runs f once on the kernels this host selects and, where
// those are the assembly, once more on the portable Go twin.
func bothKernels(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("host", f)
	if simdOn {
		t.Run("twin", func(t *testing.T) {
			defer SetSIMDForTest(SetSIMDForTest(false))
			f(t)
		})
	}
}

// ulpDiff is the distance between two finite non-negative floats in
// units in the last place.
func ulpDiff(a, b float32) int {
	d := int(math.Float32bits(a)) - int(math.Float32bits(b))
	if d < 0 {
		d = -d
	}
	return d
}

// expVia evaluates the package's exp on xs (all <= 0) through whichever
// kernel is selected: the assembly's exp is reached through the softmax
// pass with a shift of 0.
func expVia(xs []float32) []float32 {
	out := make([]float32, len(xs))
	if !simdOn {
		for i, x := range xs {
			out[i] = expGo(x)
		}
		return out
	}
	var blk [8]float32
	for i := 0; i < len(xs); i += 8 {
		blk = [8]float32{}
		n := copy(blk[:], xs[i:])
		expAsm8(&blk)
		copy(out[i:], blk[:n])
	}
	return out
}

func TestExpAccuracy(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		const steps = 400000
		xs := make([]float32, 0, steps+1)
		for i := 0; i <= steps; i++ {
			xs = append(xs, float32(expLo)*float32(i)/steps)
		}
		rng := NewRNG(21)
		for i := 0; i < 100000; i++ {
			xs = append(xs, -rng.Float32()*float32(-expLo))
		}
		worst := 0
		for i, got := range expVia(xs) {
			want := float32(math.Exp(float64(xs[i])))
			if d := ulpDiff(got, want); d > worst {
				worst = d
				if d > 2 {
					t.Fatalf("exp(%v) = %v, math.Exp gives %v: %d ulp apart", xs[i], got, want, d)
				}
			}
		}
		t.Logf("worst case %d ulp over %d points", worst, len(xs))
	})
}

func TestExpEdges(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		negInf := float32(math.Inf(-1))
		got := expVia([]float32{0, negInf, -1e30, -1000, -88, float32(expLo), float32(math.Nextafter32(float32(expLo), negInf))})
		if got[0] != 1 {
			t.Fatalf("exp(0) = %v, want exactly 1", got[0])
		}
		for i, g := range got {
			if g < 0 || math.IsNaN(float64(g)) || math.IsInf(float64(g), 0) {
				t.Fatalf("input %d: exp gave %v, want finite and non-negative", i, g)
			}
		}
		for _, i := range []int{1, 2, 3, 4, 6} {
			if got[i] != 0 {
				t.Fatalf("input %d below the flush threshold gave %v, want 0", i, got[i])
			}
		}
		if got[5] == 0 {
			t.Fatal("exp at the flush threshold itself must not flush")
		}
	})
}

// attnRef is the float64 scalar reference for Attention.
func attnRef(q Vec, k, v Mat, headDim int, cells []int, scale float32) []float64 {
	nHeads := len(q) / headDim
	groups := nHeads / (k.Cols / headDim)
	out := make([]float64, len(q))
	if len(cells) == 0 {
		return out
	}
	for h := 0; h < nHeads; h++ {
		off := (h / groups) * headDim
		scores := make([]float64, len(cells))
		maxv := math.Inf(-1)
		for i, c := range cells {
			var s float64
			for j := 0; j < headDim; j++ {
				s += float64(q[h*headDim+j]) * float64(k.At(c, off+j))
			}
			scores[i] = s * float64(scale)
			maxv = math.Max(maxv, scores[i])
		}
		var sum float64
		for i := range scores {
			scores[i] = math.Exp(scores[i] - maxv)
			sum += scores[i]
		}
		for i, c := range cells {
			for j := 0; j < headDim; j++ {
				out[h*headDim+j] += scores[i] / sum * float64(v.At(c, off+j))
			}
		}
	}
	return out
}

// attnCase builds a random attention problem: nCells-row K/V stores and
// n visible cells drawn from them in a scattered, non-monotone order.
func attnCase(rng *RNG, nHeads, nKV, headDim, nCells, n int) (q Vec, k, v Mat, cells []int) {
	q = make(Vec, nHeads*headDim)
	rng.FillNormal(q, 1)
	k, v = NewMat(nCells, nKV*headDim), NewMat(nCells, nKV*headDim)
	rng.FillNormal(k.Data, 1)
	rng.FillNormal(v.Data, 1)
	perm := make([]int, nCells)
	for i := range perm {
		perm[i] = i
	}
	for i := nCells - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return q, k, v, perm[:n]
}

func checkAttn(t testing.TB, q Vec, k, v Mat, headDim int, cells []int) {
	t.Helper()
	scale := float32(1 / math.Sqrt(float64(headDim)))
	out := make(Vec, len(q))
	for i := range out {
		out[i] = float32(math.NaN()) // the kernel must overwrite, not accumulate
	}
	var scratch Vec
	Attention(out, q, k, v, headDim, cells, scale, &scratch)
	want := attnRef(q, k, v, headDim, cells, scale)
	for i := range out {
		if d := math.Abs(float64(out[i]) - want[i]); !(d <= 1e-4*(1+math.Abs(want[i]))) {
			t.Fatalf("heads=%d kv=%d headDim=%d n=%d: out[%d] = %v, reference %v",
				len(q)/headDim, k.Cols/headDim, headDim, len(cells), i, out[i], want[i])
		}
	}
}

func TestAttentionMatchesReference(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		rng := NewRNG(31)
		shapes := []struct{ heads, kv, headDim int }{
			{4, 2, 16}, // TinyConfig: pairs sharing K/V loads
			{4, 4, 16}, // no GQA: single-head kernels
			{3, 1, 8},  // odd group: a pair then a single
			{8, 2, 32}, // two pairs per KV head
			{2, 1, 8},
			{4, 2, 12}, // not a multiple of 8: the Go twin on every host
			{2, 2, 6},
		}
		for _, s := range shapes {
			for n := 0; n <= 40; n++ {
				q, k, v, cells := attnCase(rng, s.heads, s.kv, s.headDim, 64, n)
				checkAttn(t, q, k, v, s.headDim, cells)
			}
		}
	})
}

// TestAttentionSoftmaxNormalised: with every V row all ones the output is
// the sum of the softmax probabilities.
func TestAttentionSoftmaxNormalised(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		rng := NewRNG(32)
		for _, n := range []int{1, 2, 7, 8, 9, 33, 256} {
			q, k, v, cells := attnCase(rng, 4, 2, 16, 300, n)
			for i := range v.Data {
				v.Data[i] = 1
			}
			out := make(Vec, len(q))
			var scratch Vec
			Attention(out, q, k, v, 16, cells, 0.25, &scratch)
			for i, o := range out {
				if math.Abs(float64(o)-1) > 1e-6 {
					t.Fatalf("n=%d: probabilities sum to %v at out[%d]", n, o, i)
				}
			}
		}
	})
}

// TestAttentionScratchReuse: a dirty, already grown scratch must not leak
// into a later, shorter call.
func TestAttentionScratchReuse(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		rng := NewRNG(33)
		var scratch Vec
		q, k, v, cells := attnCase(rng, 4, 2, 16, 64, 40)
		out := make(Vec, len(q))
		Attention(out, q, k, v, 16, cells, 0.25, &scratch)
		fresh := make(Vec, len(q))
		for _, n := range []int{3, 13, 1} {
			var clean Vec
			Attention(out, q, k, v, 16, cells[:n], 0.25, &scratch)
			Attention(fresh, q, k, v, 16, cells[:n], 0.25, &clean)
			for i := range out {
				if out[i] != fresh[i] {
					t.Fatalf("n=%d: reused scratch changed out[%d]: %v != %v", n, i, out[i], fresh[i])
				}
			}
		}
	})
}

func TestAttentionRejectsBadCell(t *testing.T) {
	q, k, v, _ := attnCase(NewRNG(34), 4, 2, 16, 8, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("a cell id outside the K/V store must panic, not read out of bounds")
		}
	}()
	var scratch Vec
	Attention(make(Vec, len(q)), q, k, v, 16, []int{3, 8}, 0.25, &scratch)
}

func FuzzAttnKernel(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(3), uint8(1))
	f.Add(uint64(3), uint8(0), uint8(2), uint8(2))
	f.Add(uint64(4), uint8(129), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n, kvHeads, shape uint8) {
		rng := NewRNG(seed)
		headDim := []int{8, 16, 32, 12}[shape%4]
		groups := 1 + int(shape/4)%3
		nKV := 1 + int(kvHeads)%3 // nKV*headDim is the K/V row stride
		nCells := int(n) + 1 + int(rng.Uint64()%32)
		q, k, v, cells := attnCase(rng, groups*nKV, nKV, headDim, nCells, int(n))
		checkAttn(t, q, k, v, headDim, cells)
	})
}

// forwardShapes are the weight shapes of the forward pass (rows x cols).
var forwardShapes = [][2]int{{64, 64}, {32, 64}, {160, 64}, {64, 160}, {288, 64}}

// TestMatMulTRowsEqualMatVec is the canonical-order gate for projections:
// every row of a multi-row product is bit-identical to the mat-vec of that
// row alone, for every batch width and under a ParallelRange split.
func TestMatMulTRowsEqualMatVec(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		for _, par := range []int{1, 2} {
			prev := SetParallelism(par)
			rng := NewRNG(41)
			for _, sh := range forwardShapes {
				w := NewMat(sh[0], sh[1])
				rng.FillNormal(w.Data, 1)
				for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64} {
					x := NewMat(n, sh[1])
					rng.FillNormal(x.Data, 1)
					dst := NewMat(n, sh[0])
					MatMulT(dst, x, w)
					row := make(Vec, sh[0])
					for b := 0; b < n; b++ {
						MatVec(row, w, x.Row(b))
						for o := range row {
							if dst.At(b, o) != row[o] {
								t.Fatalf("par=%d %dx%d n=%d: row %d out %d: MatMulT %v != MatVec %v",
									par, sh[0], sh[1], n, b, o, dst.At(b, o), row[o])
							}
						}
					}
				}
			}
			SetParallelism(prev)
		}
	})
}

// TestProjectionMatchesCanonicalOrder pins the kernels to the order the
// package documents: on the twin bit for bit, on the assembly to the
// rounding a fused multiply-add saves.
func TestProjectionMatchesCanonicalOrder(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		rng := NewRNG(42)
		for _, sh := range [][2]int{{64, 64}, {9, 8}, {8, 160}, {13, 24}, {7, 64}, {37, 53}, {3, 5}} {
			w := NewMat(sh[0], sh[1])
			rng.FillNormal(w.Data, 1)
			x := make(Vec, sh[1])
			rng.FillNormal(x, 1)
			got := make(Vec, sh[0])
			MatVec(got, w, x)
			for r := range got {
				want := dotGo(w.Row(r), x)
				if !simdOn && got[r] != want {
					t.Fatalf("%dx%d row %d: %v != canonical %v", sh[0], sh[1], r, got[r], want)
				}
				if math.Abs(float64(got[r]-want)) > 1e-4*(1+math.Abs(float64(want))) {
					t.Fatalf("%dx%d row %d: %v far from canonical %v", sh[0], sh[1], r, got[r], want)
				}
			}
		}
	})
}

// TestSiLUMul checks the gate against float64 and that an element's bits
// do not depend on its index or the vector length (tails included).
func TestSiLUMul(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		rng := NewRNG(43)
		for n := 0; n <= 40; n++ {
			a, b := make(Vec, n), make(Vec, n)
			rng.FillNormal(a, 4)
			rng.FillNormal(b, 2)
			if n > 2 {
				a[0], a[1], a[2] = -200, 200, 0 // both clamps of the exp
			}
			dst := make(Vec, n)
			SiLUMul(dst, a, b)
			for i := range dst {
				want := float64(a[i]) / (1 + math.Exp(-float64(a[i]))) * float64(b[i])
				if d := math.Abs(float64(dst[i]) - want); !(d <= 1e-6*(1+math.Abs(want))) {
					t.Fatalf("n=%d: SiLU(%v)*%v = %v, want %v", n, a[i], b[i], dst[i], want)
				}
				var one [1]float32
				SiLUMul(one[:], a[i:i+1], b[i:i+1])
				if one[0] != dst[i] {
					t.Fatalf("n=%d elem %d: alone %v != in the vector %v", n, i, one[0], dst[i])
				}
			}
		}
		// In place, as the forward pass calls it.
		a, b := make(Vec, 160), make(Vec, 160)
		rng.FillNormal(a, 2)
		rng.FillNormal(b, 2)
		want := make(Vec, 160)
		SiLUMul(want, a, b)
		SiLUMul(a, a, b)
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("in-place SiLUMul differs at %d", i)
			}
		}
	})
}

// TestProjectionSubranges: however ParallelRange might split the weight
// rows — down to ranges narrower than a kernel block, which today's
// chunking never produces — every output keeps its bits.
func TestProjectionSubranges(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		rng := NewRNG(44)
		w := NewMat(64, 64)
		rng.FillNormal(w.Data, 1)
		x := NewMat(5, 64)
		rng.FillNormal(x.Data, 1)
		want := NewMat(5, 64)
		MatMulT(want, x, w)
		for lo := 0; lo < 64; lo += 7 {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
				hi := min(lo+n, 64)
				got := NewMat(5, 64)
				matMulTRange(got, x, w, lo, hi)
				row := make(Vec, 64)
				matVecRange(row, w, x.Row(4), lo, hi)
				for o := lo; o < hi; o++ {
					if row[o] != want.At(4, o) {
						t.Fatalf("matVecRange [%d,%d): out %d = %v, whole product %v", lo, hi, o, row[o], want.At(4, o))
					}
					for b := 0; b < 5; b++ {
						if got.At(b, o) != want.At(b, o) {
							t.Fatalf("matMulTRange [%d,%d): row %d out %d = %v, whole product %v", lo, hi, b, o, got.At(b, o), want.At(b, o))
						}
					}
				}
				if hi < 64 && (row[hi] != 0 || got.At(0, hi) != 0) || lo > 0 && (row[lo-1] != 0 || got.At(0, lo-1) != 0) {
					t.Fatalf("range [%d,%d) wrote outside itself", lo, hi)
				}
			}
		}
	})
}
