package realbk

import (
	"fmt"
	"sync"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/backend/simbk"
	"github.com/pipeinfer/pipeinfer/internal/comm/tcpcomm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// TestGreedyParityMatrix is the full transport × strategy greedy parity
// wall in one table-driven test: all three strategies, executed over all
// three comm transports (in-process chancomm, discrete-event simcomm,
// distributed tcpcomm), must reproduce their greedy reference bit for bit
// — realbk.ReferenceGreedy on the real transports, the oracle target
// stream on the simulated one.
func TestGreedyParityMatrix(t *testing.T) {
	strategies := []engine.Strategy{
		engine.StrategyIterative,
		engine.StrategySpeculative,
		engine.StrategyPipeInfer,
	}
	nodesFor := func(s engine.Strategy) int {
		if s == engine.StrategyPipeInfer {
			return 3 // dedicated head + 2 target stages
		}
		return 2
	}

	realTokens := func(t *testing.T, s engine.Strategy, tcp bool) ([]token.Token, []token.Token) {
		t.Helper()
		opts := testOpts(s, nodesFor(s), 0.05)
		ref, err := ReferenceGreedy(opts, opts.CFG.MaxNew)
		if err != nil {
			t.Fatal(err)
		}
		if !tcp {
			out, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			return out.Tokens, ref
		}
		eps, err := tcpcomm.DialLoopback(opts.Nodes, tcpcomm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]Outcome, len(eps))
		errs := make([]error, len(eps))
		var wg sync.WaitGroup
		for rank, ep := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer ep.Close()
				outs[rank], errs[rank] = RunRank(ep, opts)
			}()
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
		return outs[0].Tokens, ref
	}

	simTokens := func(t *testing.T, s engine.Strategy) ([]token.Token, []token.Token) {
		t.Helper()
		opts := simbk.Options{
			Cluster:   cost.ClusterC().Take(nodesFor(s)),
			Pair:      cost.CPUPairs()[0],
			Strategy:  s,
			CFG:       engine.Config{MaxNew: 20},
			PromptLen: 16,
			Seed:      11,
		}
		out, err := simbk.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return out.Tokens, simbk.Reference(opts, 20)
	}

	for _, transport := range []string{"chancomm", "simcomm", "tcpcomm"} {
		for _, s := range strategies {
			transport, s := transport, s
			t.Run(fmt.Sprintf("%s/%s", transport, s), func(t *testing.T) {
				var got, ref []token.Token
				switch transport {
				case "chancomm":
					got, ref = realTokens(t, s, false)
				case "tcpcomm":
					got, ref = realTokens(t, s, true)
				case "simcomm":
					got, ref = simTokens(t, s)
				}
				if len(got) < len(ref) {
					t.Fatalf("generated %d tokens, reference has %d", len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("token %d deviates from the greedy reference: %d != %d", i, got[i], ref[i])
					}
				}
			})
		}
	}
}
