// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V, §VI). Each benchmark runs the corresponding experiment
// at a reduced-but-meaningful scale (full paper scale is available through
// cmd/pipeinfer-bench -full) and reports the figure's headline quantity as
// a custom metric so regressions in the reproduced shapes are visible in
// benchmark diffs.
package pipeinfer_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/harness"
)

// benchParams keeps each figure regeneration around a second.
func benchParams() harness.Params {
	return harness.Params{Reps: 1, MaxNew: 96, PromptLen: 64, BaseSeed: 1234}
}

// The cluster-C grid underlies Figs 4, 5, 6 and 7a; compute it once.
var (
	gridOnce sync.Once
	gridVal  *harness.Grid
	gridErr  error
)

func benchGrid(b *testing.B) *harness.Grid {
	b.Helper()
	gridOnce.Do(func() {
		gridVal, gridErr = harness.RunCPUGrid(benchParams())
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridVal
}

// --- Tables ---

func BenchmarkTableI_ModelPresets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.TableI()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII_ClusterPresets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.TableII()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIII_GPUPresets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.TableIII()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIV_GPUTestbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.TableIV()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Figs 4/5/6: cluster C sweeps ---

func benchGridFig(b *testing.B, makeFig func(*harness.Grid, int) harness.Figure, sub int, metric string) {
	g := benchGrid(b)
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = makeFig(g, sub)
	}
	// Headline: PipeInfer with the small draft at 8 nodes (series index 3,
	// X index 1 in the 4/8/15/32 sweep).
	b.ReportMetric(fig.Series[3].Points[1].Y, metric)
}

func BenchmarkFig4a_DolphinSpeed(b *testing.B) { benchGridFig(b, harness.Fig4, 0, "pipe8_tok/s") }
func BenchmarkFig4b_GoliathSpeed(b *testing.B) { benchGridFig(b, harness.Fig4, 1, "pipe8_tok/s") }
func BenchmarkFig4c_FalconSpeed(b *testing.B)  { benchGridFig(b, harness.Fig4, 2, "pipe8_tok/s") }
func BenchmarkFig5a_DolphinTTFT(b *testing.B)  { benchGridFig(b, harness.Fig5, 0, "pipe8_ttft_s") }
func BenchmarkFig5b_GoliathTTFT(b *testing.B)  { benchGridFig(b, harness.Fig5, 1, "pipe8_ttft_s") }
func BenchmarkFig5c_FalconTTFT(b *testing.B)   { benchGridFig(b, harness.Fig5, 2, "pipe8_ttft_s") }
func BenchmarkFig6a_DolphinITL(b *testing.B)   { benchGridFig(b, harness.Fig6, 0, "pipe8_itl_s") }
func BenchmarkFig6b_GoliathITL(b *testing.B)   { benchGridFig(b, harness.Fig6, 1, "pipe8_itl_s") }
func BenchmarkFig6c_FalconITL(b *testing.B)    { benchGridFig(b, harness.Fig6, 2, "pipe8_itl_s") }

func BenchmarkFig7a_MemoryEfficiency(b *testing.B) {
	g := benchGrid(b)
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.Fig7a(g)
	}
	// Headline: PipeInfer Dolphin speed-per-GiB at 32 nodes.
	b.ReportMetric(fig.Series[2].Points[3].Y, "pipe32_tok/s/GiB")
}

func BenchmarkFig7b_ClusterA_TTFT(b *testing.B) {
	var fig harness.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = harness.Fig7b(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Series[2].Points[0].Y, "pipe_dolphin_ttft_s")
}

func BenchmarkFig7c_Constrained(b *testing.B) {
	var fig harness.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = harness.Fig7c(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	// PipeInfer Dolphin at 13 heterogeneous nodes.
	b.ReportMetric(fig.Series[2].Points[2].Y, "pipe13_tok/s")
}

func BenchmarkFig8_Ablations(b *testing.B) {
	var fig harness.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = harness.Fig8(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	full := fig.Series[0].Points[0].Y
	noCancel := fig.Series[1].Points[0].Y
	b.ReportMetric(full, "dolphin_full_tok/s")
	b.ReportMetric(full-noCancel, "cancel_gain_tok/s")
}

func BenchmarkFig9_GPUSpeeds(b *testing.B) {
	var fig harness.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = harness.Fig9(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Series[0].Points[0].Y, "pipe_senku_tok/s")
}

func BenchmarkFig10_PromptVariance(b *testing.B) {
	var fig harness.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = harness.Fig10(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Series[0].Points[0].Y, "pipe_prompt1_tok/s")
}

// --- Design-choice ablation benches (internal/harness/sweeps.go; rendered by cmd/pipeinfer-bench) ---

func BenchmarkSweepMicroBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.SweepMicroBatch(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Series[0].Points[1].Y, "mb2_tok/s")
	}
}

func BenchmarkSweepCutoffReactivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.SweepCutoff(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Series[1].Points[1].Y, "ref_tok/s")
	}
}

func BenchmarkSweepSeqPartitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.SweepSeqPartitions(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Series[0].Points[3].Y, "seqs8_tok/s")
	}
}

func BenchmarkSweepAcceptance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.SweepAcceptance(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		// PipeInfer's worst-case floor relative to iterative at 10%
		// acceptance — the "near-zero slowdown" headline.
		b.ReportMetric(fig.Series[2].Points[0].Y/fig.Series[0].Points[0].Y, "pipe/iter@a0.1")
	}
}

// --- PR 10: goodput under overload ---

// BenchmarkServeOverloadGoodput measures the overload-control headline
// in exact virtual time: deadline-met goodput (tokens from sessions that
// met every configured deadline, per virtual second) at 1x/2x/4x
// oversubscription of a 4-slot simulated cluster. One deadline-free 1x
// wave calibrates the virtual service time; the shed arm then gives
// every request a TTFT SLO of 3/4 of that wave (the first wave hits it
// comfortably, anything still queued becomes provably unmeetable and is
// shed before compute), while the no-shed control carries only a
// completion deadline of 1.5 waves, which cannot be shed — excess waves
// serve anyway, miss, and dilute goodput. The gate: shed-arm goodput at
// 4x stays within 15% of 1x, while the control collapses.
func BenchmarkServeOverloadGoodput(b *testing.B) {
	const (
		slots  = 4
		maxNew = 24
	)
	base := pipeinfer.SimulateServeOptions{
		Cluster:     pipeinfer.ClusterC().Take(4),
		Pair:        pipeinfer.CPUPairs()[0],
		CFG:         pipeinfer.Config{MaxNew: maxNew},
		PromptLen:   12,
		Seed:        42,
		MaxSessions: slots,
	}
	calib := base
	calib.Sessions = slots
	cal, err := pipeinfer.SimulateServe(calib)
	if err != nil {
		b.Fatal(err)
	}
	wave := cal.Stats.Done
	ttftSLO := wave * 3 / 4
	complSLO := wave * 3 / 2

	type arm struct {
		goodput float64 // deadline-met tokens per virtual second
		hitRate float64 // over served (non-shed) sessions
		shed    int
		p50     time.Duration
		p99     time.Duration
	}
	run := func(mult int, shed bool) arm {
		opts := base
		opts.Sessions = slots * mult
		if shed {
			opts.SLOFor = func(int) (int, time.Duration, time.Duration) { return 0, ttftSLO, 0 }
		} else {
			opts.SLOFor = func(int) (int, time.Duration, time.Duration) { return 0, 0, complSLO }
		}
		out, err := pipeinfer.SimulateServe(opts)
		if err != nil {
			b.Fatal(err)
		}
		var a arm
		served, goodTok := 0, 0
		ttfts := make([]time.Duration, 0, opts.Sessions)
		for _, res := range out.Results {
			if res.Err != nil {
				a.shed++
				continue
			}
			served++
			if res.Stats.DeadlineHits == 1 {
				goodTok += res.Stats.Generated
			}
			ttfts = append(ttfts, res.Stats.TimeToFirst())
		}
		if served == 0 || out.Stats.Done <= 0 {
			b.Fatalf("degenerate arm: %d served, elapsed %v", served, out.Stats.Done)
		}
		sort.Slice(ttfts, func(i, j int) bool { return ttfts[i] < ttfts[j] })
		a.goodput = float64(goodTok) / out.Stats.Done.Seconds()
		a.hitRate = float64(out.Stats.DeadlineHits) / float64(served)
		a.p50 = ttfts[len(ttfts)/2]
		a.p99 = ttfts[len(ttfts)*99/100]
		return a
	}

	var x1, x2, x4, ctl arm
	for i := 0; i < b.N; i++ {
		x1 = run(1, true)
		x2 = run(2, true)
		x4 = run(4, true)
		ctl = run(4, false)
	}
	if ratio := x4.goodput / x1.goodput; ratio < 0.85 || ratio > 1.15 {
		b.Fatalf("shed goodput at 4x is %.2fx of 1x, want within 15%%", ratio)
	}
	if ctl.goodput > 0.6*x1.goodput {
		b.Fatalf("no-shed control held %.0f of %.0f tok/s at 4x — overload should collapse it",
			ctl.goodput, x1.goodput)
	}
	b.ReportMetric(x1.goodput, "good_tok/s_1x")
	b.ReportMetric(x2.goodput, "good_tok/s_2x")
	b.ReportMetric(x4.goodput, "good_tok/s_4x")
	b.ReportMetric(ctl.goodput, "good_tok/s_4x_noshed")
	b.ReportMetric(x4.goodput/x1.goodput, "4x/1x")
	b.ReportMetric(x4.hitRate, "hit_rate_4x")
	b.ReportMetric(float64(x4.shed), "shed_4x")
	b.ReportMetric(x4.p50.Seconds(), "ttft_p50_s_4x")
	b.ReportMetric(x4.p99.Seconds(), "ttft_p99_s_4x")
}

// --- Scaling microbenches beyond the paper figures ---

// BenchmarkSimPipeline32Nodes measures simulator throughput itself: how
// fast the DES regenerates a 32-node PipeInfer generation.
func BenchmarkSimPipeline32Nodes(b *testing.B) {
	p := benchParams()
	cond := harness.Condition{
		Cluster:  cost.ClusterC().Take(32),
		Pair:     cost.PairDolphinTiny,
		Strategy: engine.StrategyPipeInfer,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Measure(cond, p); err != nil {
			b.Fatal(err)
		}
	}
}
