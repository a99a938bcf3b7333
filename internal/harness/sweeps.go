package harness

import (
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
)

// The sweeps below are the design-choice ablations beyond the paper's
// Fig 8: they quantify the parameters §IV-B introduces (micro-batch size
// 1-4, confidence cutoff recovery/decay) and the multibuffering capacity
// (§IV-C sequence partitions). cmd/pipeinfer-bench renders them after
// the paper's figures; ROADMAP.md Open item 4 turns them into checked
// properties.

// SweepMicroBatch measures PipeInfer speed as the continuous-speculation
// micro-batch size grows. The paper bounds it to 1-4 tokens (§IV-B.1);
// the sweep extends past that range to show why: larger batches raise
// per-run latency faster than they add accepted tokens.
func SweepMicroBatch(p Params) (Figure, error) {
	p = p.Defaults()
	fig := Figure{ID: "SweepMB", Title: "Micro-batch size (PipeInfer, 8 nodes, Dolphin+TinyLlama)",
		YUnit: "tokens/s"}
	cluster := cost.ClusterC().Take(8)
	ser := Series{Label: "Pipe."}
	itl := Series{Label: "Pipe. ITL (s)"}
	for _, mb := range []int{1, 2, 4, 8, 16} {
		agg, err := Measure(Condition{Cluster: cluster, Pair: cost.PairDolphinTiny,
			Strategy: engine.StrategyPipeInfer, CFG: engine.Config{MicroBatch: mb}}, p)
		if err != nil {
			return Figure{}, err
		}
		x := fmt.Sprintf("mb=%d", mb)
		ser.Points = append(ser.Points, Point{X: x, Agg: agg, Y: agg.Speed.Mean})
		itl.Points = append(itl.Points, Point{X: x, Agg: agg, Y: agg.ITL.Mean})
	}
	fig.Series = []Series{ser, itl}
	return fig, nil
}

// SweepCutoff measures the reactive-speculation parameters: the recovery
// factor that raises the cutoff per continuous iteration and the decay
// factor that lowers it while waiting (§IV-B.2). recovery=0 disables the
// gradient entirely.
func SweepCutoff(p Params) (Figure, error) {
	p = p.Defaults()
	fig := Figure{ID: "SweepCutoff", Title: "Confidence cutoff reactivity (PipeInfer, 8 nodes, Goliath+XWin-7B)",
		YUnit: "tokens/s"}
	cluster := cost.ClusterC().Take(8)
	for _, rec := range []float32{0.01, 0.05, 0.15} {
		ser := Series{Label: fmt.Sprintf("recovery=%.2f", rec)}
		for _, dec := range []float32{0.01, 0.05, 0.15} {
			agg, err := Measure(Condition{Cluster: cluster, Pair: cost.PairGoliathXWin7,
				Strategy: engine.StrategyPipeInfer,
				CFG:      engine.Config{CutoffRecovery: rec, CutoffDecay: dec}}, p)
			if err != nil {
				return Figure{}, err
			}
			ser.Points = append(ser.Points, Point{X: fmt.Sprintf("decay=%.2f", dec), Agg: agg, Y: agg.Speed.Mean})
		}
		fig.Series = append(fig.Series, ser)
	}
	return fig, nil
}

// SweepSeqPartitions measures speed against the number of KV sequence
// partitions available for simultaneous runs (§IV-C): too few starve
// continuous speculation, extra ones beyond the pipeline depth add nothing.
func SweepSeqPartitions(p Params) (Figure, error) {
	p = p.Defaults()
	fig := Figure{ID: "SweepSeqs", Title: "KV sequence partitions (PipeInfer, 8 nodes, Dolphin+TinyLlama)",
		YUnit: "tokens/s"}
	cluster := cost.ClusterC().Take(8)
	ser := Series{Label: "Pipe."}
	for _, seqs := range []int{1, 2, 4, 8, 16, 32} {
		agg, err := Measure(Condition{Cluster: cluster, Pair: cost.PairDolphinTiny,
			Strategy: engine.StrategyPipeInfer, CFG: engine.Config{MaxSeqs: seqs}}, p)
		if err != nil {
			return Figure{}, err
		}
		ser.Points = append(ser.Points, Point{X: fmt.Sprintf("seqs=%d", seqs), Agg: agg, Y: agg.Speed.Mean})
	}
	fig.Series = []Series{ser}
	return fig, nil
}

// SweepAcceptance measures all three strategies across the acceptance-rate
// axis, locating the crossover where speculation stops paying (§I's "can
// result in reduced performance") and PipeInfer's near-zero-slowdown floor.
func SweepAcceptance(p Params) (Figure, error) {
	p = p.Defaults()
	fig := Figure{ID: "SweepAccept", Title: "Acceptance-rate sensitivity (8 nodes, Dolphin architecture)",
		YUnit: "tokens/s"}
	cluster := cost.ClusterC().Take(8)
	alphas := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for _, s := range []engine.Strategy{engine.StrategyIterative, engine.StrategySpeculative, engine.StrategyPipeInfer} {
		ser := Series{Label: strategyShort(s)}
		for _, a := range alphas {
			agg, err := Measure(Condition{Cluster: cluster, Pair: cost.PairDolphinTiny,
				Strategy: s, AcceptanceOverride: a}, p)
			if err != nil {
				return Figure{}, err
			}
			ser.Points = append(ser.Points, Point{X: fmt.Sprintf("a=%.1f", a), Agg: agg, Y: agg.Speed.Mean})
		}
		fig.Series = append(fig.Series, ser)
	}
	return fig, nil
}
