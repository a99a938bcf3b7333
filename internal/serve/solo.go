package serve

import (
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Drive settles reqs on h with the head loop the strategy names. PipeInfer
// and iterative inference are served by the scheduler — a single-request
// run of either is a one-session serve — and the synchronous speculative
// baseline (engine.RunSpeculative) generates its one request outside it,
// its Result carrying the head's statistics.
func Drive(h *engine.Head, strategy engine.Strategy, cfg Config, reqs []Request) ([]Result, error) {
	if strategy == engine.StrategySpeculative {
		toks, err := engine.RunSpeculative(h, reqs[0].Prompt)
		return []Result{{Tokens: toks, Stats: h.Stats.Snapshot()}}, err
	}
	s, err := New(h, cfg, reqs)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Solo reads a single-request run the way the paper's figures do: the
// request's tokens and timeline (prefill, first and every acceptance,
// completion, tokens generated) from its one Result, the speculation and
// cancellation counters from the head's aggregate.
func Solo(res []Result, agg engine.Stats) ([]token.Token, engine.Stats, error) {
	r := res[0]
	if r.Err != nil {
		return nil, engine.Stats{}, r.Err
	}
	agg.PrefillDone, agg.FirstToken, agg.Done = r.Stats.PrefillDone, r.Stats.FirstToken, r.Stats.Done
	agg.AcceptTimes, agg.Generated = r.Stats.AcceptTimes, r.Stats.Generated
	return r.Tokens, agg, nil
}
