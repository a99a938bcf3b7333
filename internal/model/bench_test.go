package model

import (
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/quant"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// benchRunner builds a TinyConfig runner with a 32-token prefilled context,
// the steady decode state the paper's continuous speculation keeps every
// stage in.
func benchRunner(b *testing.B, q quant.Type) (*Runner, int32) {
	b.Helper()
	cfg := TinyConfig()
	cfg.Quant = q
	m, err := New(cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRunner(m, 512)
	prompt := make([]token.Token, 32)
	for i := range prompt {
		prompt[i] = token.Token(token.NumSpecial + i%91)
	}
	if _, err := r.EvalSeq(prompt, 0, kvcache.Canonical); err != nil {
		b.Fatal(err)
	}
	return r, int32(len(prompt))
}

// BenchmarkForwardDecode measures one steady-state single-token decode
// step (the per-token cost continuous asynchronous speculation pays on
// every stage). The cache is rolled back after each step so every
// iteration sees an identical context.
func BenchmarkForwardDecode(b *testing.B) {
	r, pos := benchRunner(b, quant.F32)
	toks := []token.Token{token.Token(token.NumSpecial + 7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EvalSeq(toks, pos, kvcache.Canonical); err != nil {
			b.Fatal(err)
		}
		r.Cache.SeqRm(kvcache.Canonical, pos, pos+1)
	}
}

// BenchmarkForwardDecodeQ8 is the same step with Q8_0 weights, exercising
// the quantized-domain kernels end to end.
func BenchmarkForwardDecodeQ8(b *testing.B) {
	r, pos := benchRunner(b, quant.Q8)
	toks := []token.Token{token.Token(token.NumSpecial + 7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EvalSeq(toks, pos, kvcache.Canonical); err != nil {
			b.Fatal(err)
		}
		r.Cache.SeqRm(kvcache.Canonical, pos, pos+1)
	}
}

// BenchmarkPrefill32 measures prompt-batch evaluation (the TTFT anchor).
func BenchmarkPrefill32(b *testing.B) {
	cfg := TinyConfig()
	m, err := New(cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	prompt := make([]token.Token, 32)
	for i := range prompt {
		prompt[i] = token.Token(token.NumSpecial + i%91)
	}
	r := NewRunner(m, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EvalSeq(prompt, 0, kvcache.Canonical); err != nil {
			b.Fatal(err)
		}
		r.Cache.Clear()
	}
}

// BenchmarkBatchForChunk is the visibility layer number: BatchFor of a
// 64-row prefill chunk (the fourth of a 256-token prompt) beside 15 other
// sessions' contexts, placement and grouped visible lists included. The
// chunk is rolled back after each call.
func BenchmarkBatchForChunk(b *testing.B) {
	const sessions, ctx, chunk = 16, 192, 64
	cache := kvpage.New(kvpage.Config{Cells: sessions*288 + 256, PageSize: 16, ShardSeqs: 1})
	sc := NewScratch(TinyConfig())
	toks := make([]token.Token, chunk)
	meta := make([]kvcache.TokenMeta, chunk)
	fill := func(seq kvcache.SeqID, pos0, n int) {
		for j := range n {
			meta[j] = kvcache.TokenMeta{Pos: int32(pos0 + j), Seqs: kvcache.NewSeqSet(seq)}
		}
		if _, err := sc.BatchFor(cache, toks[:n], meta[:n]); err != nil {
			b.Fatal(err)
		}
	}
	for s := range sessions {
		for p := 0; p < ctx; p += chunk {
			fill(kvcache.SeqID(s), p, chunk)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(7, ctx, chunk)
		cache.SeqRm(7, ctx, ctx+chunk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/row")
}
