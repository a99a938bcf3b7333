package tensor

import (
	"fmt"
	"testing"
)

func BenchmarkDot256(b *testing.B) {
	rng := NewRNG(7)
	x := make(Vec, 256)
	y := make(Vec, 256)
	rng.FillNormal(x, 1)
	rng.FillNormal(y, 1)
	b.ReportAllocs()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}

func BenchmarkMatVec160x64(b *testing.B) {
	rng := NewRNG(7)
	m := NewMat(160, 64)
	rng.FillNormal(m.Data, 0.1)
	x := make(Vec, 64)
	rng.FillNormal(x, 1)
	dst := make(Vec, 160)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, m, x)
	}
}

func BenchmarkRoPE(b *testing.B) {
	rng := NewRNG(7)
	x := make(Vec, 64)
	rng.FillNormal(x, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RoPE(x, 16, i%512, 10000)
	}
}

func BenchmarkSoftmax128(b *testing.B) {
	rng := NewRNG(7)
	x := make(Vec, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.FillNormal(x, 1)
		Softmax(x)
	}
}

// BenchmarkFillNormal is the weight build's layer number: ns per variate
// on each Box-Muller tier — the AVX-512 kernel, the AVX2 kernel and their
// twin, the Norm loop — over a 64x160 projection's worth.
func BenchmarkFillNormal(b *testing.B) {
	for _, k := range tiers {
		b.Run(k.name, func(b *testing.B) {
			restore, ok := useTier(k)
			if !ok {
				b.Skipf("this host's CPU cannot run the %s tier", k.name)
			}
			defer restore()
			rng := NewRNG(7)
			x := make(Vec, 64*160)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng.FillNormal(x, 0.125)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/variate")
		})
	}
}

// BenchmarkMatMulT is the projections' layer number: ns per product on
// each tier at the forward pass's weight shapes (rows x columns) for
// batches of 6 (a quad and a pair: a decode batch), 8 and 64 activation
// rows, on one goroutine.
func BenchmarkMatMulT(b *testing.B) {
	defer SetParallelism(SetParallelism(1))
	for _, k := range tiers {
		b.Run(k.name, func(b *testing.B) {
			restore, ok := useTier(k)
			if !ok {
				b.Skipf("this host's CPU cannot run the %s tier", k.name)
			}
			defer restore()
			for _, sh := range [][2]int{{64, 64}, {160, 64}, {64, 160}} {
				for _, n := range []int{6, 8, 64} {
					b.Run(fmt.Sprintf("%dx%d/n=%d", sh[0], sh[1], n), func(b *testing.B) {
						rng := NewRNG(7)
						w, x, dst := NewMat(sh[0], sh[1]), NewMat(n, sh[1]), NewMat(n, sh[0])
						rng.FillNormal(w.Data, 0.1)
						rng.FillNormal(x.Data, 1)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							MatMulT(dst, x, w)
						}
					})
				}
			}
		})
	}
}

// BenchmarkSoftmaxExp is the attention softmax's layer number: ns per
// pass (p[i] = exp(p[i] - max), summed) on each tier over score rows of
// 64, 136 and 256 cells.
func BenchmarkSoftmaxExp(b *testing.B) {
	for _, k := range tiers {
		b.Run(k.name, func(b *testing.B) {
			restore, ok := useTier(k)
			if !ok {
				b.Skipf("this host's CPU cannot run the %s tier", k.name)
			}
			defer restore()
			for _, n := range []int{64, 136, 256} {
				b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
					p := make(Vec, n)
					NewRNG(7).FillNormal(p, 3)
					const max = 10 // every pass's outputs stay inside the exp's range
					var sum float32
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if simdOn {
							sum += softmaxAsm(p, max)
							continue
						}
						for j, v := range p {
							p[j] = expGo(v - max)
							sum += p[j]
						}
					}
					_ = sum
				})
			}
		})
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := NewRNG(7)
	x := make(Vec, 288) // TinyConfig vocab
	rng.FillNormal(x, 1)
	idx := make([]int, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx = TopKInto(idx, x, 4)
	}
}

// BenchmarkAttentionGroup is the group kernel's layer number: ns per row
// for a 64-row prefill chunk over lists of 129-192 cells (the chunk after
// two earlier ones), TinyConfig heads, through AttentionGroup beside the
// per-row kernel on the same rows.
func BenchmarkAttentionGroup(b *testing.B) {
	const rows, heads, kv, headDim = 64, 4, 2, 16
	rng := NewRNG(7)
	q, k, v, cells := attnCase(rng, heads, kv, headDim, 512, 192)
	qm := NewMat(rows, len(q))
	rng.FillNormal(qm.Data, 1)
	idx, ns := make([]int, rows), make([]int, rows)
	for j := range idx {
		idx[j], ns[j] = j, 129+j
	}
	out := NewMat(rows, len(q))
	b.Run("group", func(b *testing.B) {
		var sc AttnScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AttentionGroup(out, qm, idx, ns, k, v, headDim, cells, 0.25, &sc)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	})
	b.Run("row", func(b *testing.B) {
		var scratch Vec
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range idx {
				Attention(out.Row(j), qm.Row(j), k, v, headDim, cells[:ns[j]], 0.25, &scratch)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	})
}
