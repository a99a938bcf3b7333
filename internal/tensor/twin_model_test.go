package tensor_test

import (
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
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

func twinModel(t *testing.T, typ quant.Type, seed uint64) *model.Model {
	t.Helper()
	cfg := model.TinyConfig()
	cfg.NLayers = 4
	cfg.Quant = typ
	m, err := model.New(cfg, seed)
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
	want = want.Clone()

	split := cfg.NLayers / 2
	x := m.EmbedBatch(toks)
	for _, stage := range [][2]int{{0, split}, {split, cfg.NLayers}} {
		r := model.NewRunner(m, 64) // a stage's own cache; its store is rebuilt for the layer range
		meta := make([]kvcache.TokenMeta, len(toks))
		for i := range toks {
			meta[i] = kvcache.TokenMeta{Pos: int32(i), Seqs: kvcache.NewSeqSet(kvcache.Canonical)}
		}
		b, err := r.PrepareBatch(toks, meta)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		x, ok = m.ForwardLayers(stage[0], stage[1], x, model.NewKVStore(cfg, stage[0], stage[1], r.Cache.Size()), b, nil)
		if !ok {
			t.Fatalf("stage %v aborted", stage)
		}
	}
	got := m.Logits(x)

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
