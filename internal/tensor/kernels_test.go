package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

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
// pass with a shift of 0, sixteen values at a time.
func expVia(xs []float32) []float32 {
	out := make([]float32, len(xs))
	if !simdOn {
		for i, x := range xs {
			out[i] = expGo(x)
		}
		return out
	}
	var blk [16]float32
	for i := 0; i < len(xs); i += 16 {
		blk = [16]float32{}
		n := copy(blk[:], xs[i:])
		softmaxAsm(blk[:], 0)
		copy(out[i:], blk[:n])
	}
	return out
}

func TestExpAccuracy(t *testing.T) {
	EachTier(t, func(t *testing.T) {
		const steps = 400000
		xs := make([]float32, 0, steps+1)
		for i := 0; i <= steps; i++ {
			xs = append(xs, float32(expLo)*float32(i)/steps)
		}
		rng := NewRNG(21)
		for i := 0; i < 100000; i++ {
			xs = append(xs, -float32(rng.Float64())*float32(-expLo))
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
	EachTier(t, func(t *testing.T) {
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

// TestExpBitsIndependentOfTier: the sixteen-lane exp is the eight-lane
// one bit for bit — every softmax element and sum, -inf padding and
// flushed lanes included, and every SiLUMul element — for lengths ending
// in a whole group of sixteen, a last group of eight and a padded tail.
func TestExpBitsIndependentOfTier(t *testing.T) {
	type result struct {
		bits []uint32
		sums []float32
	}
	on := func(k tier) (r result, ok bool) {
		restore, ok := useTier(k)
		if !ok {
			return r, false
		}
		defer restore()
		rng := NewRNG(45)
		negInf := float32(math.Inf(-1))
		for n8 := 8; n8 <= 272; n8 += 8 {
			p := make(Vec, n8)
			rng.FillNormal(p, 3)
			p[int(rng.Uint64()%uint64(n8))] = -100 // flushed: below expLo after the shift
			p[int(rng.Uint64()%uint64(n8))] = negInf
			max := negInf
			for _, v := range p {
				max = float32(math.Max(float64(max), float64(v)))
			}
			r.sums = append(r.sums, softmaxAsm(p, max))
			for _, v := range p {
				r.bits = append(r.bits, math.Float32bits(v))
			}
		}
		for n := 0; n <= 70; n++ {
			a, b := make(Vec, n), make(Vec, n)
			rng.FillNormal(a, 40) // past both clamps of the exp
			rng.FillNormal(b, 2)
			SiLUMul(a, a, b)
			for _, v := range a {
				r.bits = append(r.bits, math.Float32bits(v))
			}
		}
		return r, true
	}
	want, ok := on(tier{"avx2", true, false})
	got, wide := on(tier{"avx512", true, true})
	if !ok || !wide {
		t.Skip("this host's CPU cannot run both the avx512 and the avx2 tier")
	}
	for i := range want.sums {
		if math.Float32bits(got.sums[i]) != math.Float32bits(want.sums[i]) {
			t.Fatalf("softmax %d: sum %v on avx512, %v on avx2", i, got.sums[i], want.sums[i])
		}
	}
	for i := range want.bits {
		if got.bits[i] != want.bits[i] {
			t.Fatalf("output %d: %#x on avx512, %#x on avx2", i, got.bits[i], want.bits[i])
		}
	}
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
	EachTier(t, func(t *testing.T) {
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
	EachTier(t, func(t *testing.T) {
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
	EachTier(t, func(t *testing.T) {
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

// checkRowsEqualMatVec requires every row of dst = x * w^T to equal, bit
// for bit, the mat-vec of that activation row alone.
func checkRowsEqualMatVec(t testing.TB, what string, dst, x, w Mat) {
	t.Helper()
	row := make(Vec, w.Rows)
	for b := 0; b < x.Rows; b++ {
		MatVec(row, w, x.Row(b))
		for o := range row {
			if dst.At(b, o) != row[o] {
				t.Fatalf("%s %dx%d n=%d: row %d out %d: MatMulT %v != MatVec %v",
					what, w.Rows, w.Cols, x.Rows, b, o, dst.At(b, o), row[o])
			}
		}
	}
}

// TestMatMulTRowsEqualMatVec is the canonical-order gate for projections:
// every row of a multi-row product is bit-identical to the mat-vec of that
// row alone, for every batch width and under a ParallelRange split. The
// widths put rows through the AVX-512 tile in quads and in a last pair
// and through the mat-vec as an odd row; the shapes past the forward
// pass's end in a partial weight block; and a split into ranges six rows
// wide, narrower than the AVX-512 tile, takes the AVX2 tile.
func TestMatMulTRowsEqualMatVec(t *testing.T) {
	shapes := append(slices.Clone(forwardShapes), [2]int{9, 64}, [2]int{13, 24}, [2]int{12, 160})
	EachTier(t, func(t *testing.T) {
		for _, par := range []int{1, 2} {
			prev := SetParallelism(par)
			rng := NewRNG(41)
			for _, sh := range shapes {
				w := NewMat(sh[0], sh[1])
				rng.FillNormal(w.Data, 1)
				for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 64, 66} {
					x := NewMat(n, sh[1])
					rng.FillNormal(x.Data, 1)
					dst := NewMat(n, sh[0])
					MatMulT(dst, x, w)
					checkRowsEqualMatVec(t, fmt.Sprintf("par=%d", par), dst, x, w)
					split := NewMat(n, sh[0])
					for lo := 0; lo < sh[0]; lo += 6 {
						matMulTRange(split, x, w, lo, min(lo+6, sh[0]))
					}
					checkRowsEqualMatVec(t, "ranges of 6", split, x, w)
				}
			}
			SetParallelism(prev)
		}
	})
}

// FuzzMatMulT: random batch widths, weight shapes (columns a multiple of
// 8) and parallelism; on every tier the host can run, every row of the
// product is bit-equal to its mat-vec.
func FuzzMatMulT(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(63), uint8(7), uint8(0))
	f.Add(uint64(2), uint8(66), uint8(12), uint8(19), uint8(1))
	f.Add(uint64(3), uint8(4), uint8(159), uint8(1), uint8(1))
	f.Add(uint64(4), uint8(10), uint8(8), uint8(2), uint8(3))
	var run []tier
	for _, k := range tiers {
		if restore, ok := useTier(k); ok {
			restore()
			run = append(run, k)
		} else {
			f.Logf("skipping the %s tier: this host's CPU cannot run it", k.name)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, rows, groups, par uint8) {
		rng := NewRNG(seed)
		w := NewMat(1+int(rows), 8*(1+int(groups)%32))
		rng.FillNormal(w.Data, 1)
		x := NewMat(1+int(n)%80, w.Cols)
		rng.FillNormal(x.Data, 1)
		defer SetParallelism(SetParallelism(1 + int(par)%4))
		for _, k := range run {
			func() {
				restore, _ := useTier(k)
				defer restore()
				dst := NewMat(x.Rows, w.Rows)
				MatMulT(dst, x, w)
				checkRowsEqualMatVec(t, k.name, dst, x, w)
			}()
		}
	})
}

// TestProjectionMatchesCanonicalOrder pins the kernels to the order the
// package documents: on the twin bit for bit, on the assembly to the
// rounding a fused multiply-add saves.
func TestProjectionMatchesCanonicalOrder(t *testing.T) {
	EachTier(t, func(t *testing.T) {
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
	EachTier(t, func(t *testing.T) {
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
	EachTier(t, func(t *testing.T) {
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

// groupCase builds an AttentionGroup problem: a qRows-row query matrix
// of which size scattered rows attend over prefixes of one list of
// listLen scattered cells, the longest prefix the whole list.
func groupCase(rng *RNG, heads, kv, headDim, size, listLen int) (q Mat, k, v Mat, rows, ns, cells []int) {
	qRows := size + int(rng.Uint64()%4)
	q = NewMat(qRows, heads*headDim)
	rng.FillNormal(q.Data, 1)
	_, k, v, cells = attnCase(rng, heads, kv, headDim, listLen+7+int(rng.Uint64()%40), listLen)
	perm := make([]int, qRows)
	for i := range perm {
		perm[i] = i
	}
	for i := qRows - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	rows = perm[:size]
	ns = make([]int, size)
	for j := range ns {
		if rng.Uint64()%2 == 0 {
			ns[j] = max(listLen-size+1+j, 0) // a prefill chunk's staircase
		} else {
			ns[j] = int(rng.Uint64() % uint64(listLen+1))
		}
	}
	ns[int(rng.Uint64()%uint64(size))] = listLen
	return q, k, v, rows, ns, cells
}

// checkGroupBits requires every row AttentionGroup writes to equal, bit
// for bit, Attention over the row's own prefix of the list, through a
// scratch that earlier, larger calls have left dirty.
func checkGroupBits(t testing.TB, q, k, v Mat, headDim int, rows, ns, cells []int, sc *AttnScratch) {
	t.Helper()
	scale := float32(1 / math.Sqrt(float64(headDim)))
	out := NewMat(q.Rows, q.Cols)
	for i := range out.Data {
		out.Data[i] = float32(math.NaN())
	}
	AttentionGroup(out, q, rows, ns, k, v, headDim, cells, scale, sc)
	want := make(Vec, q.Cols)
	var scratch Vec
	for j, r := range rows {
		Attention(want, q.Row(r), k, v, headDim, cells[:ns[j]], scale, &scratch)
		for i, w := range want {
			if got := out.Row(r)[i]; math.Float32bits(got) != math.Float32bits(w) {
				t.Fatalf("heads=%d kv=%d headDim=%d group of %d over %d cells: row %d (prefix %d) out[%d] = %v, per-row %v",
					q.Cols/headDim, k.Cols/headDim, headDim, len(rows), len(cells), r, ns[j], i, got, w)
			}
		}
	}
}

// TestAttentionGroupBitsEqualRows is the group kernel's bit contract:
// whatever the group size (both sides of panelRows), list length, GQA
// group and cell order, each row's output is the per-row kernel's.
func TestAttentionGroupBitsEqualRows(t *testing.T) {
	EachTier(t, func(t *testing.T) {
		rng := NewRNG(35)
		var sc AttnScratch
		for _, s := range []struct{ heads, kv, headDim int }{
			{4, 2, 16}, // TinyConfig: GQA group of 2
			{4, 4, 16}, // GQA group of 1
			{3, 1, 8},  // a pair then a single head
			{4, 2, 32},
			{4, 2, 12}, // not a multiple of 8: per-row on every host
		} {
			for size := 1; size <= 64; size++ {
				for _, listLen := range []int{0, 1, 7, 9, 13, 64, 129, 150} {
					q, k, v, rows, ns, cells := groupCase(rng, s.heads, s.kv, s.headDim, size, listLen)
					checkGroupBits(t, q, k, v, s.headDim, rows, ns, cells, &sc)
				}
			}
		}
	})
}

func TestAttentionGroupRejectsBadCell(t *testing.T) {
	q, k, v, rows, ns, cells := groupCase(NewRNG(36), 4, 2, 16, 8, 20)
	cells[5] = k.Rows
	defer func() {
		if recover() == nil {
			t.Fatal("a cell id outside the K/V store must panic, not read out of bounds")
		}
	}()
	var sc AttnScratch
	AttentionGroup(NewMat(q.Rows, q.Cols), q, rows, ns, k, v, 16, cells, 0.25, &sc)
}

func FuzzAttnGroup(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(40), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(64), uint8(150), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(1), uint8(0), uint8(2), uint8(2))
	f.Add(uint64(4), uint8(17), uint8(9), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, size, listLen, kvHeads, shape uint8) {
		rng := NewRNG(seed)
		headDim := []int{8, 16, 32, 12}[shape%4]
		groups := 1 + int(shape/4)%2
		nKV := 1 + int(kvHeads)%3
		var sc AttnScratch
		q, k, v, rows, ns, cells := groupCase(rng, groups*nKV, nKV, headDim, 1+int(size)%64, int(listLen))
		checkGroupBits(t, q, k, v, headDim, rows, ns, cells, &sc)
	})
}
