package core_test

import (
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend/simbk"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

func tracedRun(t *testing.T, strategy engine.Strategy, alpha float64) (*trace.FlightDump, simbk.Outcome) {
	t.Helper()
	tr := trace.NewSet()
	pair := cost.PairDolphinTiny
	pair.Acceptance = alpha
	out, err := simbk.Run(simbk.Options{
		Cluster:   cost.ClusterC().Take(5),
		Pair:      pair,
		Strategy:  strategy,
		CFG:       engine.Config{MaxNew: 48},
		PromptLen: 24,
		Seed:      17,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Dump(""), out
}

// overlapCount counts pairs of evaluation spans on *different* stages that
// overlap in time for different runs — the signature of asynchronous
// pipelined execution.
func overlapCount(spans []trace.Span) int {
	n := 0
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.Node == b.Node || a.Run == b.Run {
				continue
			}
			if a.From < b.To && b.From < a.To {
				n++
			}
		}
	}
	return n
}

// TestAsynchronousOverlap verifies §IV-A's core property: under PipeInfer,
// different runs evaluate on different stages simultaneously; under
// iterative inference (one run in flight) they never do.
func TestAsynchronousOverlap(t *testing.T) {
	pipeTr, _ := tracedRun(t, engine.StrategyPipeInfer, 0.79)
	iterTr, _ := tracedRun(t, engine.StrategyIterative, 0.79)

	pipeOverlap := overlapCount(pipeTr.EvalSpans())
	iterOverlap := overlapCount(iterTr.EvalSpans())
	if pipeOverlap == 0 {
		t.Fatal("PipeInfer produced no cross-stage overlap — pipeline not actually asynchronous")
	}
	if iterOverlap != 0 {
		t.Fatalf("iterative inference overlapped %d times — runs must be serialized", iterOverlap)
	}
	t.Logf("cross-stage overlapping span pairs: pipeinfer=%d iterative=%d", pipeOverlap, iterOverlap)
}

// TestUtilisationImproves verifies §I's utilization claim: PipeInfer keeps
// pipeline stages substantially busier than speculative inference.
func TestUtilisationImproves(t *testing.T) {
	pipeTr, pipeOut := tracedRun(t, engine.StrategyPipeInfer, 0.79)
	specTr, specOut := tracedRun(t, engine.StrategySpeculative, 0.79)

	mean := func(tr *trace.FlightDump, horizon time.Duration) float64 {
		u := tr.Utilisation(horizon)
		var sum float64
		var n int
		for node, v := range u {
			if node == "head" {
				continue
			}
			sum += v
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	pipeU := mean(pipeTr, pipeOut.Stats.Done)
	specU := mean(specTr, specOut.Stats.Done)
	if pipeU <= specU {
		t.Fatalf("PipeInfer stage utilisation %.2f not above speculative %.2f", pipeU, specU)
	}
	t.Logf("mean stage utilisation: pipeinfer=%.2f speculative=%.2f (%.1fx)",
		pipeU, specU, pipeU/specU)
}

// TestCancellationSkipsWork verifies that cancellations actually cut
// evaluations short: with low alignment some spans must end early (an
// eval- that completed no rows).
func TestCancellationSkipsWork(t *testing.T) {
	tr, out := tracedRun(t, engine.StrategyPipeInfer, 0.3)
	if out.Stats.RunsCancelled == 0 {
		t.Fatal("no cancellations at 30% acceptance")
	}
	midEval := 0
	skipped := 0
	for _, e := range tr.Timeline() {
		if e.Kind == trace.FlightEvalEnd && e.Arg == 0 {
			midEval++
		}
		if e.Kind == trace.FlightCancel {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no cancel events recorded")
	}
	if midEval == 0 {
		t.Fatal("no evaluation was cut short: every cancelled run ran to completion")
	}
	t.Logf("cancel events=%d, mid-evaluation aborts=%d", skipped, midEval)
}

// TestSuperfluousAndInvalidDiscarded: under the no-cancellation ablation,
// invalidated runs flow to the head and must be discarded there without
// corrupting the accepted sequence (covered by equality elsewhere); here
// we check they are actually detected.
func TestSuperfluousAndInvalidDiscarded(t *testing.T) {
	tr := trace.NewSet()
	pair := cost.PairGoliathXWin7 // 52% acceptance: many invalidations
	out, err := simbk.Run(simbk.Options{
		Cluster:   cost.ClusterC().Take(5),
		Pair:      pair,
		Strategy:  engine.StrategyPipeInfer,
		CFG:       engine.Config{MaxNew: 64, DisableCancel: true},
		PromptLen: 24,
		Seed:      23,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With cancellation disabled the head must still mark runs cancelled
	// locally (so their results are discarded).
	if out.Stats.RunsCancelled == 0 {
		t.Fatal("no runs marked invalid under the no-cancel ablation at 52% acceptance")
	}
}

// TestDeepPipelineStillExact pushes a 16-stage pipeline (short shards,
// lots of in-flight runs) through the full protocol.
func TestDeepPipelineStillExact(t *testing.T) {
	opts := simbk.Options{
		Cluster:   cost.ClusterC().Take(17), // 16 stages + head
		Pair:      cost.PairGoliathXWin7,
		Strategy:  engine.StrategyPipeInfer,
		CFG:       engine.Config{MaxNew: 48, MaxInflight: 24, MaxSeqs: 16},
		PromptLen: 24,
		Seed:      31,
	}
	out, err := simbk.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := simbk.Reference(opts, 48)
	for i := range ref {
		if out.Tokens[i] != ref[i] {
			t.Fatalf("deep pipeline diverged at %d", i)
		}
	}
}
