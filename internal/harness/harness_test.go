package harness

import (
	"strings"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
)

// fastParams keeps unit tests quick; the benches and cmd run larger.
func fastParams() Params { return Params{Reps: 1, MaxNew: 64, PromptLen: 32, BaseSeed: 5} }

func TestMeasureBasic(t *testing.T) {
	agg, err := Measure(Condition{
		Cluster:  cost.ClusterC().Take(4),
		Pair:     cost.PairDolphinTiny,
		Strategy: engine.StrategyPipeInfer,
	}, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Speed.Mean <= 0 || agg.TTFT.Mean <= 0 {
		t.Fatalf("degenerate aggregate: %+v", agg)
	}
}

// TestFig4aShape verifies the paper's qualitative Fig 4a result on a
// reduced grid: PipeInfer beats speculative beats iterative for the
// well-aligned Dolphin pair, and iterative speed is in the right absolute
// range (~1 token/s on cluster C).
func TestFig4aShape(t *testing.T) {
	p := fastParams()
	cluster := cost.ClusterC().Take(8)
	iter, err := Measure(Condition{Cluster: cluster, Pair: cost.PairDolphinTiny,
		Strategy: engine.StrategyIterative}, p)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Measure(Condition{Cluster: cluster, Pair: cost.PairDolphinTiny,
		Strategy: engine.StrategySpeculative}, p)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Measure(Condition{Cluster: cluster, Pair: cost.PairDolphinTiny,
		Strategy: engine.StrategyPipeInfer}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !(pipe.Speed.Mean > spec.Speed.Mean && spec.Speed.Mean > iter.Speed.Mean) {
		t.Fatalf("ordering broken: iter=%.2f spec=%.2f pipe=%.2f",
			iter.Speed.Mean, spec.Speed.Mean, pipe.Speed.Mean)
	}
	if iter.Speed.Mean < 0.4 || iter.Speed.Mean > 3.0 {
		t.Fatalf("iterative Dolphin speed %.2f t/s out of calibrated range", iter.Speed.Mean)
	}
	t.Logf("8-node Dolphin+Tiny: iter=%.2f spec=%.2f pipe=%.2f t/s (pipe/spec=%.2fx)",
		iter.Speed.Mean, spec.Speed.Mean, pipe.Speed.Mean, pipe.Speed.Mean/spec.Speed.Mean)
}

func TestRenderFigure(t *testing.T) {
	f := Figure{ID: "FigX", Title: "demo", YUnit: "t/s",
		Series: []Series{{Label: "a", Points: []Point{{X: "4 Node", Y: 1.5}, {X: "8 Node", Y: 2.25}}}},
		Notes:  []string{"hello"},
	}
	out := f.Render()
	for _, want := range []string{"FigX", "4 Node", "8 Node", "1.500", "2.250", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTables(t *testing.T) {
	for name, s := range map[string]string{
		"I": TableI(), "II": TableII(), "III": TableIII(), "IV": TableIV(),
	} {
		if len(s) < 50 {
			t.Fatalf("table %s suspiciously short:\n%s", name, s)
		}
	}
	if !strings.Contains(TableI(), "Dolphin") || !strings.Contains(TableI(), "79.00%") {
		t.Fatal("Table I content wrong")
	}
	if !strings.Contains(TableII(), "Gigabit") {
		t.Fatal("Table II content wrong")
	}
	if !strings.Contains(TableIII(), "Mixtral") {
		t.Fatal("Table III content wrong")
	}
}

func TestFig10PromptVariance(t *testing.T) {
	p := Params{Reps: 2, MaxNew: 96, PromptLen: 32, BaseSeed: 9}
	fig, err := Fig10(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Points) != 4 {
		t.Fatalf("Fig10 shape wrong: %d series", len(fig.Series))
	}
	// The reproducible part of Fig 10: PipeInfer wins on every prompt.
	// (The paper's stronger "flatter across prompts" observation does not
	// reproduce under a pure-acceptance prompt model: cmd/pipeinfer-bench
	// prints the figure, and ROADMAP.md Open item 8(b) files a claim that
	// fails in our model as a finding, not a test to loosen.)
	for i, pt := range fig.Series[0].Points {
		if pt.Y <= fig.Series[1].Points[i].Y {
			t.Fatalf("prompt %q: pipe %.2f <= spec %.2f", pt.X, pt.Y, fig.Series[1].Points[i].Y)
		}
	}
}

func TestFig8AblationShape(t *testing.T) {
	fig, err := Fig8(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 9 {
		t.Fatalf("Fig8 series = %d, want 9 (3 pairs x 3 variants)", len(fig.Series))
	}
	// For each pair, the full configuration should not be slower than the
	// no-cancellation variant.
	for i := 0; i < 9; i += 3 {
		full := fig.Series[i].Points[0].Y
		noCancel := fig.Series[i+1].Points[0].Y
		if noCancel > full*1.10 {
			t.Fatalf("%s: no-cancel (%.2f) markedly faster than full (%.2f)",
				fig.Series[i+1].Label, noCancel, full)
		}
	}
}
