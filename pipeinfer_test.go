// Tests of the public facade: a downstream user's view of the library.
package pipeinfer_test

import (
	"testing"

	pipeinfer "github.com/pipeinfer/pipeinfer"
)

func TestFacadeSimulate(t *testing.T) {
	out, err := pipeinfer.Simulate(pipeinfer.SimulateOptions{
		Cluster:   pipeinfer.ClusterC().Take(4),
		Pair:      pipeinfer.CPUPairs()[0],
		Strategy:  pipeinfer.PipeInfer,
		CFG:       pipeinfer.Config{MaxNew: 24},
		PromptLen: 16,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Generated < 24 || out.Stats.Speed() <= 0 {
		t.Fatalf("degenerate outcome: %+v", out.Stats)
	}
}

func TestFacadeGenerate(t *testing.T) {
	tk, err := pipeinfer.NewTokenizer(pipeinfer.TinyModel().VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeinfer.TinyModel()
	cfg.NLayers = 4
	opts := pipeinfer.GenerateOptions{
		Nodes:    3,
		Strategy: pipeinfer.PipeInfer,
		CFG:      pipeinfer.Config{MaxNew: 10},
		ModelCfg: cfg,
		Seed:     3,
		Prompt:   tk.Encode("hello"),
	}
	out, err := pipeinfer.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pipeinfer.ReferenceGreedy(opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			t.Fatal("facade generation diverged from reference")
		}
	}
	if got := tk.Decode(out.Tokens); len(got) == 0 {
		t.Fatal("decode produced nothing")
	}
}

func TestFacadeStrategyNames(t *testing.T) {
	if pipeinfer.Iterative.String() != "iterative" ||
		pipeinfer.Speculative.String() != "speculative" ||
		pipeinfer.PipeInfer.String() != "pipeinfer" {
		t.Fatal("strategy constants wrong")
	}
}

func TestFacadePresets(t *testing.T) {
	if len(pipeinfer.CPUPairs()) != 6 || len(pipeinfer.GPUPairs()) != 7 {
		t.Fatal("pair presets wrong")
	}
	if len(pipeinfer.ClusterA().Nodes) != 8 || len(pipeinfer.ClusterB().Nodes) != 13 ||
		len(pipeinfer.ClusterC().Nodes) != 32 || len(pipeinfer.GPUCluster().Nodes) != 4 {
		t.Fatal("cluster presets wrong")
	}
	if pipeinfer.PaperParams().Reps != 10 {
		t.Fatal("paper params wrong")
	}
}

func TestFacadeTrace(t *testing.T) {
	tr := pipeinfer.NewTrace()
	_, err := pipeinfer.Simulate(pipeinfer.SimulateOptions{
		Cluster:   pipeinfer.ClusterC().Take(3),
		Pair:      pipeinfer.CPUPairs()[0],
		Strategy:  pipeinfer.PipeInfer,
		CFG:       pipeinfer.Config{MaxNew: 8},
		PromptLen: 8,
		Seed:      2,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	timeline := tr.Dump("")
	if timeline.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
	if len(timeline.EvalSpans()) == 0 {
		t.Fatal("no evaluation spans recorded")
	}
}

func TestFacadeServe(t *testing.T) {
	cfg := pipeinfer.TinyModel()
	cfg.NLayers = 4
	tk, err := pipeinfer.NewTokenizer(cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	prompts := []string{"hello", "world", "again"}
	reqs := make([]pipeinfer.ServeRequest, len(prompts))
	for i, p := range prompts {
		reqs[i] = pipeinfer.ServeRequest{Prompt: tk.Encode(p), MaxNew: 6}
	}
	out, err := pipeinfer.Serve(pipeinfer.ServeOptions{
		Nodes:    2,
		ModelCfg: cfg,
		Seed:     3,
		Requests: reqs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		ref, err := pipeinfer.ReferenceGreedy(pipeinfer.GenerateOptions{
			ModelCfg: cfg, Seed: 3, Prompt: reqs[i].Prompt,
		}, 6)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if out.Results[i].Tokens[j] != ref[j] {
				t.Fatalf("served request %d diverged from its serial reference", i)
			}
		}
	}
}

func TestFacadeSimulateServe(t *testing.T) {
	out, err := pipeinfer.SimulateServe(pipeinfer.SimulateServeOptions{
		Cluster:   pipeinfer.ClusterC().Take(4),
		Pair:      pipeinfer.CPUPairs()[0],
		CFG:       pipeinfer.Config{MaxNew: 12},
		Sessions:  6,
		PromptLen: 8,
		Seed:      2,
		Speculate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 6 || out.Stats.Generated != 6*12 {
		t.Fatalf("degenerate serving outcome: %d results, %d generated",
			len(out.Results), out.Stats.Generated)
	}
	if out.Stats.Speed() <= 0 {
		t.Fatal("no aggregate speed")
	}
}
