package tensor_test

import (
	"math"
	"slices"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/quant"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// The model package's parity gates (TestGreedyDeterministic,
// TestPipelineSplitMatchesWhole, TestQuantizedGreedyMatchesDequantized)
// run on whatever kernels the host selects — on amd64, the assembly. The
// tests below hold the portable Go twin to the same three properties on
// such a host. They live here, in tensor's external test package,
// because only tensor's own tests can switch the kernels
// (SetSIMDForTest): the program has no such switch.

func onTwin(t *testing.T) {
	t.Helper()
	if !tensor.SIMDAccelerated() {
		t.Skip("the host already runs the Go twin; the model package's own tests cover it")
	}
	prev := tensor.SetSIMDForTest(false)
	t.Cleanup(func() { tensor.SetSIMDForTest(prev) })
}

func twinCfg(typ quant.Type) model.Config {
	cfg := model.TinyConfig()
	cfg.NLayers = 4
	cfg.Quant = typ
	return cfg
}

func twinModel(t *testing.T, typ quant.Type, seed uint64) *model.Model {
	t.Helper()
	m, err := model.New(twinCfg(typ), seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func greedy(t *testing.T, m *model.Model, prompt []token.Token, maxNew int) []token.Token {
	t.Helper()
	out, err := model.NewRunner(m, 256).Greedy(prompt, maxNew)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTwinGreedyDeterministic(t *testing.T) {
	onTwin(t)
	m := twinModel(t, quant.F32, 3)
	prompt := []token.Token{token.BOS, 10, 20, 30}
	a, b := greedy(t, m, prompt, 16), greedy(t, m, prompt, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("greedy output differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTwinPipelineSplitMatchesWhole: two stages over separate caches and
// stores reproduce the whole-model logits bit for bit, and a prompt
// evaluated in two chunks reproduces the unchunked one — the twin's own
// canonical-order contract.
func TestTwinPipelineSplitMatchesWhole(t *testing.T) {
	onTwin(t)
	m := twinModel(t, quant.F32, 5)
	cfg := m.Cfg
	toks := []token.Token{token.BOS, 11, 22, 33, 44, 55, 66, 77, 88}

	whole := model.NewRunner(m, 64)
	want, err := whole.EvalSeq(toks, 0, kvcache.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	want.Data = slices.Clone(want.Data)

	split := cfg.NLayers / 2
	x := m.EmbedBatchInto(new(tensor.Mat), toks)
	sc := model.NewScratch(cfg)
	for _, stage := range [][2]int{{0, split}, {split, cfg.NLayers}} {
		r := model.NewRunner(m, 64) // a stage's own cache; its store is rebuilt for the layer range
		meta := make([]kvcache.TokenMeta, len(toks))
		for i := range toks {
			meta[i] = kvcache.TokenMeta{Pos: int32(i), Seqs: kvcache.NewSeqSet(kvcache.Canonical)}
		}
		b, err := sc.BatchFor(r.Cache, toks, meta)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		x, ok = m.ForwardLayersScratch(stage[0], stage[1], x, model.NewKVStore(cfg, stage[0], stage[1], r.Cache.Size()), b, nil, sc)
		if !ok {
			t.Fatalf("stage %v aborted", stage)
		}
	}
	got := m.LogitsInto(new(tensor.Mat), x, sc)

	chunked := model.NewRunner(m, 64)
	if _, err := chunked.EvalSeq(toks[:4], 0, kvcache.Canonical); err != nil {
		t.Fatal(err)
	}
	tail, err := chunked.EvalSeq(toks[4:], 4, kvcache.Canonical)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < want.Rows; b++ {
		for j, w := range want.Row(b) {
			if got.At(b, j) != w {
				t.Fatalf("token %d logit %d: whole %v, split %v", b, j, w, got.At(b, j))
			}
			if b >= 4 && tail.At(b-4, j) != w {
				t.Fatalf("token %d logit %d: whole %v, chunked %v", b, j, w, tail.At(b-4, j))
			}
		}
	}
}

func TestTwinQuantizedGreedyMatchesDequantized(t *testing.T) {
	onTwin(t)
	prompt := []token.Token{token.BOS, 17, 80, 121, 44}
	for _, typ := range []quant.Type{quant.F32, quant.Q8, quant.Q4} {
		m := twinModel(t, typ, 4242)
		deq := func(q quant.Mat) quant.Mat { return quant.Quantize(q.Dequantize(), quant.F32) }
		d := &model.Model{Cfg: m.Cfg, Embed: m.Embed, Norm: m.Norm, Output: deq(m.Output)}
		d.Cfg.Quant = quant.F32
		for _, src := range m.Layers {
			d.Layers = append(d.Layers, model.Layer{
				AttnNorm: src.AttnNorm, Wq: deq(src.Wq), Wk: deq(src.Wk), Wv: deq(src.Wv), Wo: deq(src.Wo),
				FFNNorm: src.FFNNorm, WGate: deq(src.WGate), WUp: deq(src.WUp), WDown: deq(src.WDown),
			})
		}
		got, want := greedy(t, m, prompt, 32), greedy(t, d, prompt, 32)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: token %d = %d, dequantized path %d", typ, i, got[i], want[i])
			}
		}
	}
}

// weightBits lists every weight m holds, in a fixed order, as bits.
func weightBits(m *model.Model) []uint32 {
	var out []uint32
	add := func(v tensor.Vec) {
		for _, x := range v {
			out = append(out, math.Float32bits(x))
		}
	}
	add(m.Embed.Data)
	for _, l := range m.Layers {
		add(l.AttnNorm)
		add(l.FFNNorm)
		for _, q := range []quant.Mat{l.Wq, l.Wk, l.Wv, l.Wo, l.WGate, l.WUp, l.WDown} {
			add(q.Dequantize().Data)
		}
	}
	add(m.Norm)
	add(m.Output.Dequantize().Data)
	return out
}

// TestBuildBitsIndependentOfKernel: unlike the forward-pass kernels, each
// Box-Muller tier equals the twin bit for bit, so ranks with and without
// AVX-512 or AVX2 in one deployment derive one model — whole, as a stage,
// or as the draft of a stage that holds only part of the target.
func TestBuildBitsIndependentOfKernel(t *testing.T) {
	typs := []quant.Type{quant.F32, quant.Q8, quant.Q4}
	build := func(typ quant.Type) map[string]*model.Model {
		stage, err := model.NewStage(twinCfg(typ), 9, 1, 3, false, true)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*model.Model{
			"whole": twinModel(t, typ, 9),
			"stage": stage,
			"draft": model.NewDraft(stage, 0.05, 10),
		}
	}
	twin := map[quant.Type]map[string]*model.Model{}
	func() {
		defer tensor.SetSIMDForTest(tensor.SetSIMDForTest(false))
		for _, typ := range typs {
			twin[typ] = build(typ)
		}
	}()
	tensor.EachTier(t, func(t *testing.T) {
		for _, typ := range typs {
			for name, m := range build(typ) {
				got, want := weightBits(m), weightBits(twin[typ][name])
				if len(got) != len(want) {
					t.Fatalf("%v %s: %d weights on this tier, %d on the twin", typ, name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v %s: weight %d is %#x on this tier, %#x on the twin", typ, name, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// forwardLogitBits serves sessions sessions at once through m and returns
// the bits of every logit it computed: a 64-token prompt each, prefilled
// in four batched chunks of 16 rows per session, then 8 batched greedy
// decode steps of one row per session.
func forwardLogitBits(t *testing.T, m *model.Model, sessions int) []uint32 {
	t.Helper()
	const prompt, chunk, steps = 64, 16, 8
	cache := kvpage.New(kvpage.Config{Cells: sessions * 80, PageSize: 16, ShardSeqs: 1}) // 72 cells a session, in whole pages
	store := model.NewKVStore(m.Cfg, 0, m.Cfg.NLayers, cache.Size())
	sc := model.NewScratch(m.Cfg)
	var out []uint32
	eval := func(toks []token.Token, meta []kvcache.TokenMeta) tensor.Mat {
		b, err := sc.BatchFor(cache, toks, meta)
		if err != nil {
			t.Fatal(err)
		}
		x, ok := m.ForwardLayersScratch(0, m.Cfg.NLayers, m.EmbedBatchInto(new(tensor.Mat), toks), store, b, nil, sc)
		if !ok {
			t.Fatal("evaluation aborted")
		}
		logits := m.LogitsInto(new(tensor.Mat), x, sc)
		for _, v := range logits.Data[:logits.Rows*logits.Cols] {
			out = append(out, math.Float32bits(v))
		}
		return logits
	}
	next := make([]token.Token, sessions)
	var toks []token.Token
	var meta []kvcache.TokenMeta
	for pos := 0; pos < prompt+steps; {
		toks, meta = toks[:0], meta[:0]
		n := 1
		if pos < prompt {
			n = chunk
		}
		for s := range sessions {
			seqs := kvcache.NewSeqSet(kvcache.SeqID(s))
			for p := pos; p < pos+n; p++ {
				tok := next[s]
				if p < prompt {
					tok = token.Token(token.NumSpecial + (p*7+s*31)%200)
				}
				toks = append(toks, tok)
				meta = append(meta, kvcache.TokenMeta{Pos: int32(p), Seqs: seqs})
			}
		}
		logits := eval(toks, meta)
		pos += n
		for s := range sessions {
			next[s] = token.Token(tensor.ArgMax(logits.Row((s+1)*n - 1)))
		}
	}
	return out
}

// TestForwardBitsIndependentOfTier: the AVX-512 tier's kernels are
// bit-equal to the AVX2 ones, so ranks with and without AVX-512 in one
// deployment compute one model. Six sessions served together put every
// decode step through the AVX-512 tile as a quad and a last pair. Every
// assembly tier must give the logits the host's kernels give;
// the twin rounds without fused multiply-adds, and TestTwin* hold it to
// its own contract.
func TestForwardBitsIndependentOfTier(t *testing.T) {
	m := twinModel(t, quant.F32, 6)
	var want []uint32
	tensor.EachTier(t, func(t *testing.T) {
		if !tensor.SIMDAccelerated() {
			t.Skip("the twin is not bit-equal to the assembly")
		}
		got := forwardLogitBits(t, m, 6)
		if want == nil {
			want = got
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%d logits on this tier, %d on the host's", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("logit %d is %#x on this tier, %#x on the host's", i, got[i], want[i])
			}
		}
	})
}
