package realbk

import (
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/faultcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/quant"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

func testOpts(strategy engine.Strategy, nodes int, noise float32) Options {
	cfg := model.TinyConfig()
	cfg.NLayers = 4
	return Options{
		Nodes:      nodes,
		Strategy:   strategy,
		CFG:        engine.Config{MaxNew: 20, MaxSeqs: 8},
		ModelCfg:   cfg,
		Seed:       11,
		DraftNoise: noise,
		Prompt:     []token.Token{token.BOS, 10, 45, 200, 33, 7, 99, 120},
	}
}

// slowResults serves opts as Run does, over a pipeline whose results
// reach the head late (holdResults).
func slowResults(opts Options) (ServeOutcome, error) {
	so := opts.oneSession()
	so.WrapEndpoint = wrapPlan(holdResults())
	return spawn(so, opts.Strategy)
}

// holdResults is a fault plan that holds every result 5 ms on the head's
// side of the link. The serving head's draft yields to its session's
// waiting result (Head.YieldTo), and the test draft is as large as the
// target, so it takes longer than an in-process round trip: a short
// one-session serve can finish with every draft cut short, and whether it
// speculates at all is timing. Held results make the round trip longer
// than a draft, as a draft far smaller than the target or stages across a
// network do: with yields on, the drafts finish and every run speculates.
func holdResults() *faultcomm.Plan {
	return &faultcomm.Plan{Rules: []faultcomm.Rule{
		{Src: -1, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Delay, Delay: 5 * time.Millisecond}}}
}

// TestRealOutputEquality is the backbone §V-B check on real tensor math:
// single-node greedy, multi-node iterative, speculative, and PipeInfer
// must all emit identical tokens.
func TestRealOutputEquality(t *testing.T) {
	opts := testOpts(engine.StrategyIterative, 1, 0.05)
	ref, err := ReferenceGreedy(opts, opts.CFG.MaxNew)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		strategy engine.Strategy
		nodes    int
		noise    float32
	}{
		{"iterative-1", engine.StrategyIterative, 1, 0.05},
		{"iterative-3", engine.StrategyIterative, 3, 0.05},
		{"speculative-3-aligned", engine.StrategySpeculative, 3, 0.02},
		{"speculative-3-noisy", engine.StrategySpeculative, 3, 0.8},
		{"pipeinfer-3-aligned", engine.StrategyPipeInfer, 3, 0.02},
		{"pipeinfer-3-noisy", engine.StrategyPipeInfer, 3, 0.8},
		{"pipeinfer-2", engine.StrategyPipeInfer, 2, 0.05},
		{"pipeinfer-4", engine.StrategyPipeInfer, 4, 0.05},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := Run(testOpts(c.strategy, c.nodes, c.noise))
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Tokens) < len(ref) {
				t.Fatalf("generated %d tokens, want >= %d", len(out.Tokens), len(ref))
			}
			for i := range ref {
				if out.Tokens[i] != ref[i] {
					t.Fatalf("token %d = %d, want %d (zero deviation required)",
						i, out.Tokens[i], ref[i])
				}
			}
		})
	}
}

// TestRealSpeculativeWideTrees forces branchy speculation trees (width 3)
// through the real pipeline: multi-leaf linearizations exercise per-leaf
// sequence allocation, shared-ancestor cells, and branch-exclusive
// attention masks on real tensors — and the output must still be exact.
func TestRealSpeculativeWideTrees(t *testing.T) {
	opts := testOpts(engine.StrategySpeculative, 3, 0.3)
	opts.CFG.TreeWidth = 3
	opts.CFG.TreeCap = 6
	opts.CFG.SpecCutoff = 0.001 // accept almost any confidence: max branching
	ref, err := ReferenceGreedy(opts, opts.CFG.MaxNew)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			t.Fatalf("wide-tree speculation diverged at %d", i)
		}
	}
	if out.Stats.Proposed == 0 {
		t.Fatal("no tree nodes proposed")
	}
}

// TestRealPipeInferAcceptsDraftTokens: with a well-aligned draft, real
// PipeInfer must accept speculated tokens (not just fall through to
// corrective sampling).
func TestRealPipeInferAcceptsDraftTokens(t *testing.T) {
	opts := testOpts(engine.StrategyPipeInfer, 3, 0.01)
	opts.CFG.MaxNew = 24
	out, err := outcome(slowResults(opts))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Accepted == 0 {
		t.Fatal("no draft tokens accepted despite near-perfect alignment")
	}
	if out.Stats.AcceptanceRate() < 0.3 {
		t.Fatalf("acceptance %.2f too low for noise 0.01", out.Stats.AcceptanceRate())
	}
}

// TestRealCancellationOnNoisyDraft: a badly aligned draft must trigger
// early inference cancellation without corrupting output (covered by the
// equality test); here we check the machinery fires.
func TestRealCancellationOnNoisyDraft(t *testing.T) {
	opts := testOpts(engine.StrategyPipeInfer, 3, 1.5)
	opts.CFG.MaxNew = 24
	out, err := outcome(slowResults(opts))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.RunsCancelled == 0 {
		t.Fatal("expected cancellations with a heavily noised draft")
	}
}

// TestRealNoCancelAblationStillCorrect: disabling cancellation must keep
// output identical (invalid runs are discarded at the head instead).
func TestRealNoCancelAblationStillCorrect(t *testing.T) {
	base := testOpts(engine.StrategyPipeInfer, 3, 0.8)
	ref, err := ReferenceGreedy(base, base.CFG.MaxNew)
	if err != nil {
		t.Fatal(err)
	}
	base.CFG.DisableCancel = true
	out, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			t.Fatalf("no-cancel output diverged at %d", i)
		}
	}
}

// TestRealDraftIncrementalReuse: the head drafter must reuse its KV cache
// across Propose calls (correct results after rollbacks are covered by
// equality; this pins the internal bookkeeping).
func TestRealDraftIncrementalReuse(t *testing.T) {
	cfg := model.TinyConfig()
	cfg.NLayers = 2
	m, err := model.New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := model.NewRunner(model.NewDraft(m, 0, 6), 128)
	h := NewHead(d, cfg.VocabSize)

	ctx := []token.Token{token.BOS, 10, 20}
	t1, p1, _ := h.Propose(ctx, 2)
	if len(t1) != 2 || p1[0] < p1[1] {
		t.Fatalf("propose shape wrong: %v %v", t1, p1)
	}
	// Extend: only the suffix should need evaluation.
	ctx2 := append(append([]token.Token{}, ctx...), t1[0])
	h.Propose(ctx2, 1)
	if got := d.Cache.SeqLen(0); got != 4 {
		t.Fatalf("draft cache holds %d cells, want 4", got)
	}
	// Diverge: rollback to the common prefix then re-evaluate.
	ctx3 := append(append([]token.Token{}, ctx...), 99, 98)
	h.Propose(ctx3, 1)
	if got := d.Cache.SeqLen(0); got != 5 {
		t.Fatalf("after rollback draft cache holds %d cells, want 5", got)
	}
	// Same context again: no change, logits cached.
	t3a, _, _ := h.Propose(ctx3, 1)
	first := t3a[0] // Propose reuses its buffers
	t3b, _, _ := h.Propose(ctx3, 1)
	if first != t3b[0] {
		t.Fatal("repeated propose diverged")
	}
}

// TestRealMemoryAccounting: the head carries the draft; stages carry
// shards; iterative skips the draft.
func TestRealMemoryAccounting(t *testing.T) {
	pipe, err := Run(testOpts(engine.StrategyPipeInfer, 3, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.PerNodeMem[0] == 0 {
		t.Fatal("head should hold the draft model")
	}
	iter, err := Run(testOpts(engine.StrategyIterative, 3, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	var pipeSum, iterSum int64
	for i := range pipe.PerNodeMem {
		pipeSum += pipe.PerNodeMem[i]
		iterSum += iter.PerNodeMem[i]
	}
	if pipeSum <= iterSum {
		t.Fatal("PipeInfer cluster memory should exceed iterative (draft model)")
	}
}

// TestRealStatsSanity: metric bookkeeping basics.
func TestRealStatsSanity(t *testing.T) {
	out, err := Run(testOpts(engine.StrategyPipeInfer, 3, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	s := out.Stats
	if s.Generated != 20 {
		t.Fatalf("Generated = %d", s.Generated)
	}
	if s.Done < s.FirstToken || s.FirstToken < s.PrefillDone {
		t.Fatalf("timestamp ordering broken: prefill=%v first=%v done=%v",
			s.PrefillDone, s.FirstToken, s.Done)
	}
	if len(s.AcceptTimes) < s.Generated-1 {
		t.Fatalf("acceptance timestamps missing: %d for %d tokens", len(s.AcceptTimes), s.Generated)
	}
	if s.Speed() <= 0 {
		t.Fatal("speed must be positive")
	}
}

// TestRealQuantizedPipelineExact runs the full PipeInfer protocol over a
// Q8-quantized target model: quantized kernels, real pipeline, exact
// output (quantization changes the model, not the scheduler's losslessness).
func TestRealQuantizedPipelineExact(t *testing.T) {
	opts := testOpts(engine.StrategyPipeInfer, 3, 0.05)
	opts.ModelCfg.Quant = quant.Q8
	ref, err := ReferenceGreedy(opts, opts.CFG.MaxNew)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			t.Fatalf("quantized pipeline diverged at %d", i)
		}
	}
}

func TestActivationCodecRoundtrip(t *testing.T) {
	m := tensor.NewMat(3, 5)
	rng := tensor.NewRNG(77)
	rng.FillNormal(m.Data, 2)
	dec := decodeMat(encodeMat(m), 3, 5)
	for i := range m.Data {
		if dec.Data[i] != m.Data[i] {
			t.Fatalf("codec not exact at %d", i)
		}
	}
	row := decodeRow(encodeMat(m), 1, 5)
	for j := 0; j < 5; j++ {
		if row[j] != m.At(1, j) {
			t.Fatalf("decodeRow wrong at %d", j)
		}
	}
}

func TestDecodeMatPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad payload size")
		}
	}()
	decodeMat(make([]byte, 10), 2, 2)
}

func TestRealErrors(t *testing.T) {
	opts := testOpts(engine.StrategyPipeInfer, 1, 0.05)
	if _, err := Run(opts); err == nil {
		t.Fatal("PipeInfer on 1 node must fail")
	}
	opts = testOpts(engine.StrategyIterative, 3, 0.05)
	opts.Prompt = nil
	if _, err := Run(opts); err == nil {
		t.Fatal("empty prompt must fail")
	}
	opts = testOpts(engine.StrategyIterative, 8, 0.05)
	opts.ModelCfg.NLayers = 4 // fewer layers than stages
	if _, err := Run(opts); err == nil {
		t.Fatal("over-split must fail")
	}
}

// TestOneSessionOutcome: a Run of any strategy is a one-session serve
// (spawn over Options.oneSession), and its Outcome reads like one.
// Exactly the requested tokens are generated, and each one but the prompt-sampled
// token carries an acceptance time; prefill completes before the first
// acceptance, which comes no later than completion; and the run counters
// the Outcome takes from the head's aggregate are the one session's own.
func TestOneSessionOutcome(t *testing.T) {
	counters := func(s engine.Stats) [5]int {
		return [5]int{s.Proposed, s.Accepted, s.RunsLaunched, s.RunsCancelled, s.Superfluous}
	}
	for _, s := range []engine.Strategy{engine.StrategyPipeInfer, engine.StrategyIterative, engine.StrategySpeculative} {
		opts := testOpts(s, 3, 0.3)
		served, err := slowResults(opts)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		out, err := outcome(served, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		st := out.Stats
		if st.Generated != opts.CFG.MaxNew || len(out.Tokens) != st.Generated {
			t.Fatalf("%v: generated %d (%d tokens), want %d", s, st.Generated, len(out.Tokens), opts.CFG.MaxNew)
		}
		if len(st.AcceptTimes) != st.Generated-1 {
			t.Fatalf("%v: %d acceptance times for %d tokens", s, len(st.AcceptTimes), st.Generated)
		}
		if !(0 < st.PrefillDone && st.PrefillDone < st.FirstToken && st.FirstToken <= st.Done) {
			t.Fatalf("%v: timeline out of order: prefill %v, first %v, done %v", s, st.PrefillDone, st.FirstToken, st.Done)
		}
		if sess, agg := counters(served.Results[0].Stats), counters(served.Stats); sess != agg || counters(st) != agg {
			t.Fatalf("%v: session counters %v, aggregate %v, outcome %v", s, sess, agg, counters(st))
		}
		if s != engine.StrategyIterative && st.Proposed == 0 {
			t.Fatalf("%v: the serve never speculated", s)
		}
	}
}
