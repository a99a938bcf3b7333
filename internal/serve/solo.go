package serve

import (
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Drive settles reqs on h under the strategy's schedule, one scheduler
// for all three: iterative inference never drafts, PipeInfer drafts
// continuously and asynchronously (Config.Speculate), and the speculative
// baseline drafts a tree, then awaits it (launchRound). A single-request
// run of any of them is a one-session serve.
func Drive(h *engine.Head, strategy engine.Strategy, cfg Config, reqs []Request) ([]Result, error) {
	s, err := New(h, cfg, reqs)
	if err != nil {
		return nil, err
	}
	s.rounds = strategy == engine.StrategySpeculative
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
