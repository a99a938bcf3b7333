package simbk

import (
	"slices"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/oracle"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

func baseOpts(strategy engine.Strategy, nodes int, alpha float64) Options {
	cluster := cost.ClusterC().Take(nodes)
	pair := cost.PairDolphinTiny
	pair.Acceptance = alpha
	return Options{
		Cluster:   cluster,
		Pair:      pair,
		Strategy:  strategy,
		CFG:       engine.Config{MaxNew: 48},
		PromptLen: 32,
		Seed:      7,
	}
}

func run(t *testing.T, opts Options) Outcome {
	t.Helper()
	out, err := Run(opts)
	if err != nil {
		t.Fatalf("%v on %d nodes: %v", opts.Strategy, len(opts.Cluster.Nodes), err)
	}
	return out
}

// TestOutputEqualityAcrossStrategies is the §V-B correctness check: greedy
// output must be identical for iterative, speculative, and PipeInfer
// inference, and must equal the target model's own stream.
func TestOutputEqualityAcrossStrategies(t *testing.T) {
	for _, alpha := range []float64{0.79, 0.52} {
		ref := Reference(baseOpts(engine.StrategyIterative, 4, alpha), 48)
		for _, s := range []engine.Strategy{engine.StrategyIterative, engine.StrategySpeculative, engine.StrategyPipeInfer} {
			out := run(t, baseOpts(s, 4, alpha))
			if len(out.Tokens) < 48 {
				t.Fatalf("%v: generated only %d tokens", s, len(out.Tokens))
			}
			for i := 0; i < 48; i++ {
				if out.Tokens[i] != ref[i] {
					t.Fatalf("alpha=%.2f %v: token %d = %d, want %d (zero deviation required)",
						alpha, s, i, out.Tokens[i], ref[i])
				}
			}
		}
	}
}

func TestOutputEqualityManyNodes(t *testing.T) {
	ref := Reference(baseOpts(engine.StrategyPipeInfer, 8, 0.66), 48)
	out := run(t, baseOpts(engine.StrategyPipeInfer, 8, 0.66))
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			t.Fatalf("8-node PipeInfer diverged at %d", i)
		}
	}
}

// TestPipeInferBeatsBaselines: on the reference cluster with a
// well-aligned pair, PipeInfer must outperform both baselines — the
// paper's headline result.
func TestPipeInferBeatsBaselines(t *testing.T) {
	iter := run(t, baseOpts(engine.StrategyIterative, 8, 0.79))
	spec := run(t, baseOpts(engine.StrategySpeculative, 8, 0.79))
	pipe := run(t, baseOpts(engine.StrategyPipeInfer, 8, 0.79))

	if pipe.Stats.Speed() <= iter.Stats.Speed() {
		t.Fatalf("PipeInfer (%.2f t/s) not faster than iterative (%.2f t/s)",
			pipe.Stats.Speed(), iter.Stats.Speed())
	}
	if pipe.Stats.Speed() <= spec.Stats.Speed() {
		t.Fatalf("PipeInfer (%.2f t/s) not faster than speculative (%.2f t/s)",
			pipe.Stats.Speed(), spec.Stats.Speed())
	}
	if spec.Stats.Speed() <= iter.Stats.Speed() {
		t.Fatalf("speculative (%.2f t/s) not faster than iterative (%.2f t/s) at 79%% acceptance",
			spec.Stats.Speed(), iter.Stats.Speed())
	}
}

// TestTTFTNearIterative: PipeInfer's time-to-first-token must be close to
// iterative inference and far below speculative inference (§V-B, Fig 5).
func TestTTFTNearIterative(t *testing.T) {
	iter := run(t, baseOpts(engine.StrategyIterative, 8, 0.79))
	spec := run(t, baseOpts(engine.StrategySpeculative, 8, 0.79))
	pipe := run(t, baseOpts(engine.StrategyPipeInfer, 8, 0.79))

	if pipe.Stats.TTFT() >= spec.Stats.TTFT() {
		t.Fatalf("PipeInfer TTFT %v not below speculative %v", pipe.Stats.TTFT(), spec.Stats.TTFT())
	}
	// Near-parity: within 2x of iterative (the paper reports near-parity
	// and sometimes better, since the target pipeline is one node shorter).
	if pipe.Stats.TTFT() > 2*iter.Stats.TTFT() {
		t.Fatalf("PipeInfer TTFT %v far above iterative %v", pipe.Stats.TTFT(), iter.Stats.TTFT())
	}
}

// TestAcceptanceRateCalibrated: with shallow speculation (micro-batch 1,
// small in-flight window) the measured acceptance approaches the pair's
// per-token agreement; deeper speculation legitimately dilutes it (every
// token after a divergence is wasted, §IV-B). Both the absolute band and
// the monotonic ordering across pairs must hold.
func TestAcceptanceRateCalibrated(t *testing.T) {
	measure := func(alpha float64) float64 {
		opts := baseOpts(engine.StrategyPipeInfer, 6, alpha)
		opts.CFG.MaxNew = 150
		opts.CFG.MicroBatch = 1
		opts.CFG.MaxInflight = 3
		out := run(t, opts)
		return out.Stats.AcceptanceRate()
	}
	hi := measure(0.79)
	lo := measure(0.52)
	// Chain speculation of depth <= 3 at per-token agreement a yields
	// (a+a^2+a^3)/3: 0.64 for a=0.79, 0.36 for a=0.52.
	if hi < 0.50 || hi > 0.92 {
		t.Fatalf("acceptance rate %.3f for alpha 0.79 outside [0.50, 0.92]", hi)
	}
	if lo >= hi {
		t.Fatalf("acceptance not monotonic in alignment: %.3f (0.52) >= %.3f (0.79)", lo, hi)
	}
}

// TestCancellationFiresForPoorAlignment: with 52% acceptance the pipeline
// must actually cancel invalidated speculative runs (§IV-D).
func TestCancellationFiresForPoorAlignment(t *testing.T) {
	opts := baseOpts(engine.StrategyPipeInfer, 8, 0.52)
	opts.CFG.MaxNew = 100
	out := run(t, opts)
	if out.Stats.RunsCancelled == 0 {
		t.Fatal("no runs cancelled at 52% acceptance")
	}
	if out.Stats.RunsLaunched <= out.Stats.RunsCancelled {
		t.Fatalf("cancelled (%d) should be a subset of launched (%d)",
			out.Stats.RunsCancelled, out.Stats.RunsLaunched)
	}
}

// TestNoCancellationAblationSlower: disabling early inference cancellation
// must not speed things up for poorly aligned pairs (Fig 8).
func TestNoCancellationAblationSlower(t *testing.T) {
	base := baseOpts(engine.StrategyPipeInfer, 8, 0.52)
	base.CFG.MaxNew = 96
	full := run(t, base)

	ablated := base
	ablated.CFG.DisableCancel = true
	noCancel := run(t, ablated)

	// Output must still be correct without cancellation.
	ref := Reference(base, 96)
	for i := range ref {
		if noCancel.Tokens[i] != ref[i] {
			t.Fatalf("no-cancel ablation diverged at token %d", i)
		}
	}
	if noCancel.Stats.Speed() > full.Stats.Speed()*1.05 {
		t.Fatalf("removing cancellation should not speed up: full %.2f vs ablated %.2f t/s",
			full.Stats.Speed(), noCancel.Stats.Speed())
	}
}

// TestNoContinuousAblationCorrect: the single-large-batch ablation remains
// correct (Fig 8 measures its slowdown; harness benches quantify it).
func TestNoContinuousAblationCorrect(t *testing.T) {
	opts := baseOpts(engine.StrategyPipeInfer, 8, 0.66)
	opts.CFG.DisableContinuous = true
	opts.CFG.MaxNew = 64
	out := run(t, opts)
	ref := Reference(opts, 64)
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			t.Fatalf("no-continuous ablation diverged at token %d", i)
		}
	}
}

// TestMemoryAccounting: iterative inference must use less memory than the
// speculative strategies (no draft model), Fig 7a's premise.
func TestMemoryAccounting(t *testing.T) {
	iter := run(t, baseOpts(engine.StrategyIterative, 4, 0.79))
	pipe := run(t, baseOpts(engine.StrategyPipeInfer, 4, 0.79))
	sumIter, sumPipe := int64(0), int64(0)
	for _, m := range iter.PerNodeMem {
		sumIter += m
	}
	for _, m := range pipe.PerNodeMem {
		sumPipe += m
	}
	if sumPipe <= sumIter {
		t.Fatalf("PipeInfer total memory %d should exceed iterative %d (draft model)",
			sumPipe, sumIter)
	}
	if len(iter.PerNodeMem) != 4 {
		t.Fatal("per-node memory vector wrong length")
	}
}

// TestDeterministicRuns: two identical simulations must agree exactly in
// timing and output.
func TestDeterministicRuns(t *testing.T) {
	a := run(t, baseOpts(engine.StrategyPipeInfer, 6, 0.66))
	b := run(t, baseOpts(engine.StrategyPipeInfer, 6, 0.66))
	if a.Stats.Done != b.Stats.Done {
		t.Fatalf("virtual end times differ: %v vs %v", a.Stats.Done, b.Stats.Done)
	}
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] {
			t.Fatal("outputs differ between identical runs")
		}
	}
	if a.Stats.RunsLaunched != b.Stats.RunsLaunched {
		t.Fatal("run counts differ between identical runs")
	}
}

// TestGigabitSlowerThanInfiniband: interconnect quality must matter.
func TestGigabitSlowerThanInfiniband(t *testing.T) {
	fast := baseOpts(engine.StrategyPipeInfer, 8, 0.79)
	slow := fast
	slow.Cluster.Link = cost.GigabitEthernet
	f := run(t, fast)
	s := run(t, slow)
	if s.Stats.Speed() >= f.Stats.Speed() {
		t.Fatalf("GigE (%.2f t/s) not slower than IB (%.2f t/s)",
			s.Stats.Speed(), f.Stats.Speed())
	}
}

// TestSpeculativeDegradesWithPoorAlignment: at 52% acceptance speculative
// inference loses most of its edge over iterative (Fig 4b's premise),
// while PipeInfer retains a clear win.
func TestSpeculativeDegradesWithPoorAlignment(t *testing.T) {
	iterLo := run(t, baseOpts(engine.StrategyIterative, 8, 0.52))
	specLo := run(t, baseOpts(engine.StrategySpeculative, 8, 0.52))
	pipeLo := run(t, baseOpts(engine.StrategyPipeInfer, 8, 0.52))

	specGain := specLo.Stats.Speed() / iterLo.Stats.Speed()
	pipeGain := pipeLo.Stats.Speed() / iterLo.Stats.Speed()
	if pipeGain <= specGain {
		t.Fatalf("PipeInfer gain (%.2fx) should exceed speculative gain (%.2fx) at low alignment",
			pipeGain, specGain)
	}
}

func TestHeterogeneousClusterRuns(t *testing.T) {
	opts := baseOpts(engine.StrategyPipeInfer, 8, 0.66)
	opts.Cluster = cost.ClusterB() // 13 heterogeneous nodes
	out := run(t, opts)
	if len(out.Tokens) < opts.CFG.MaxNew {
		t.Fatalf("generated %d tokens", len(out.Tokens))
	}
}

func TestSplitWeights(t *testing.T) {
	opts := baseOpts(engine.StrategyIterative, 4, 0.79)
	opts.SplitWeights = []float64{1, 1, 1, 5}
	out := run(t, opts)
	if len(out.Tokens) != opts.CFG.MaxNew {
		t.Fatalf("generated %d tokens", len(out.Tokens))
	}
	bad := opts
	bad.SplitWeights = []float64{1, 2}
	if _, err := Run(bad); err == nil {
		t.Fatal("expected split weight count error")
	}
}

func TestSingleNodeIterative(t *testing.T) {
	opts := baseOpts(engine.StrategyIterative, 1, 0.79)
	out := run(t, opts)
	ref := Reference(opts, opts.CFG.MaxNew)
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			t.Fatal("single-node iterative diverged")
		}
	}
}

func TestPipeInferNeedsTwoNodes(t *testing.T) {
	opts := baseOpts(engine.StrategyPipeInfer, 1, 0.79)
	opts.Cluster = cost.ClusterC().Take(1)
	if _, err := Run(opts); err == nil {
		t.Fatal("PipeInfer on one node should fail (dedicated head required)")
	}
}

// runCounters are the counters a single-request Outcome takes from the
// head's aggregate.
func runCounters(s engine.Stats) [5]int {
	return [5]int{s.Proposed, s.Accepted, s.RunsLaunched, s.RunsCancelled, s.Superfluous}
}

// TestOneSessionOutcome: a Run of any strategy is a one-session serve,
// and its Outcome reads like one. Exactly the requested tokens are
// generated, and each one but the prompt-sampled token (TTFT anchors at
// prefill completion) carries an acceptance time; prefill completes
// before the first acceptance, which comes no later than completion; and
// the run counters the Outcome takes from the head's aggregate are the
// one session's own. The last case is a paper-scale baseline run whose
// final tree round verifies more tokens than the budget has left: the
// round's acceptances stop at MaxNew.
func TestOneSessionOutcome(t *testing.T) {
	cases := []Options{
		baseOpts(engine.StrategyPipeInfer, 4, 0.52),
		baseOpts(engine.StrategyIterative, 4, 0.52),
		baseOpts(engine.StrategySpeculative, 4, 0.52),
		{Cluster: cost.ClusterC().Take(4), Pair: cost.PairDolphinTiny, Strategy: engine.StrategySpeculative,
			CFG: engine.Config{MaxNew: 160}, PromptLen: 128, Seed: 2},
	}
	for _, opts := range cases {
		s := opts.Strategy
		so, reqs := opts.oneSession()
		served, err := simulate(so, s, nil, reqs)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		toks, st, err := serve.Solo(served.Results, served.Stats)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if st.Generated != opts.CFG.MaxNew || len(toks) != st.Generated {
			t.Fatalf("%v: generated %d (%d tokens), want %d", s, st.Generated, len(toks), opts.CFG.MaxNew)
		}
		if len(st.AcceptTimes) != st.Generated-1 {
			t.Fatalf("%v: %d acceptance times for %d tokens", s, len(st.AcceptTimes), st.Generated)
		}
		if !(0 < st.PrefillDone && st.PrefillDone < st.FirstToken && st.FirstToken <= st.Done) {
			t.Fatalf("%v: timeline out of order: prefill %v, first %v, done %v", s, st.PrefillDone, st.FirstToken, st.Done)
		}
		if sess, agg := runCounters(served.Results[0].Stats), runCounters(served.Stats); sess != agg || runCounters(st) != agg {
			t.Fatalf("%v: session counters %v, aggregate %v, outcome %v", s, sess, agg, runCounters(st))
		}
		if s == engine.StrategyPipeInfer && (st.Proposed == 0 || st.RunsCancelled == 0) {
			t.Fatalf("%v: %d proposed, %d cancelled: the serve never speculated", s, st.Proposed, st.RunsCancelled)
		}
		if s == engine.StrategySpeculative && (st.Proposed == 0 || st.Accepted == 0) {
			t.Fatalf("%v: %d proposed, %d accepted: the serve never drafted a tree", s, st.Proposed, st.Accepted)
		}
		out := run(t, opts)
		if out.Stats.Done != st.Done || runCounters(out.Stats) != runCounters(st) {
			t.Fatalf("%v: Run differs from its one-session serve", s)
		}
	}
}

// TestLastStageSamplesItsCells: the last stage answers a row with the
// target's choice over the tokens its KV cells hold, not over anything the
// run carries. A decode row carries one token; the rest of its context
// comes from the prompt's cells, and once one of those cells is removed
// and placed again with another token, the same decode row answers for
// the new context.
func TestLastStageSamplesItsCells(t *testing.T) {
	o := oracle.New(simVocab, 0.7, 7)
	cache := kvpage.New(kvpage.Config{Cells: 64, PageSize: 8})
	w := backend.NewStage(cache, NewWorker(chancomm.New(1).Endpoint(0), cost.ClusterC().Nodes[0], cost.PairDolphinTiny.Target, 2, o, cache.Size()))
	seq := kvcache.NewSeqSet(0)
	// eval runs one row per token from position pos0 and returns every
	// row's answer.
	eval := func(pos0 int, toks ...token.Token) []token.Token {
		t.Helper()
		msg := &engine.RunMsg{Kind: engine.KindNonSpec}
		for i, tok := range toks {
			msg.Tokens = append(msg.Tokens, engine.TokenPlace{Tok: tok, Pos: int32(pos0 + i), Seqs: seq})
		}
		if err := w.Place(msg); err != nil {
			t.Fatal(err)
		}
		out, wire, ok := w.Eval(msg, nil, func() bool { return false })
		if !ok || len(out) != 4*len(toks) || wire != len(toks)*4*cost.PairDolphinTiny.Target.VocabSize {
			t.Fatalf("%d rows answered with %d bytes, %d on the wire (ok %v)", len(toks), len(out), wire, ok)
		}
		got := make([]token.Token, len(toks))
		for i := range got {
			got[i] = decodeID(out[4*i:])
		}
		return got
	}

	prompt := Prompt(simVocab, 12, 3)
	n := len(prompt)
	for i, got := range eval(0, prompt...) {
		if want := o.TargetNext(prompt[:i+1]); got != want {
			t.Fatalf("prompt row %d answered %d, want %d", i, got, want)
		}
	}
	x := token.Token(100)
	before := eval(n, x)[0]
	if want := o.TargetNext(append(slices.Clone(prompt), x)); before != want {
		t.Fatalf("decode row answered %d, want %d", before, want)
	}

	// Rewrite the prompt's last position: its cell and the decode row's go,
	// another token takes the position, and the decode row runs again.
	if err := w.ApplyKV([]kvcache.Op{{Kind: kvcache.OpSeqRm, Src: 0, P0: int32(n - 1), P1: int32(n + 1)}}); err != nil {
		t.Fatal(err)
	}
	y := prompt[n-1] + 1
	eval(n-1, y)
	ctx := append(slices.Clone(prompt[:n-1]), y, x)
	after := eval(n, x)[0]
	if want := o.TargetNext(ctx); after != want {
		t.Fatalf("after the rewrite the decode row answered %d, want %d (%d before)", after, want, before)
	}
	if after == before {
		t.Fatalf("the rewrite left the answer at %d: pick another token", after)
	}
}
