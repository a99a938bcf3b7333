// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V, §VI). Each benchmark runs the corresponding experiment
// at a reduced-but-meaningful scale (full paper scale is available through
// cmd/pipeinfer-bench -full) and reports the figure's headline quantity as
// a custom metric so regressions in the reproduced shapes are visible in
// benchmark diffs.
package pipeinfer_test

import (
	"sync"
	"testing"

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
