package realbk

import (
	"slices"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
)

// TestVirtualClockServe runs realbk's source on the virtual-clock spawn
// (backend.Simulate) that simbk serves on, over Cluster A's link: a
// one-request PipeInfer serve and an iterative one, each three times. The
// output must be the greedy reference, and what speculation did and when
// the request finished must be the same on every run — the schedule
// depends on the kernel's clock, not on the host's.
//
// Real compute charges no virtual time yet: neither a stage's per-layer
// cancellation probe nor the draft's yield probe calls Elapse, so only
// the links move the clock. Each rank has weights of its own, as a rank
// that is a process of its own does: ranks sharing weights in-process
// would block the head on a WaitGroup the kernel cannot see.
func TestVirtualClockServe(t *testing.T) {
	link := cost.ClusterA().Take(3).Link
	for _, strategy := range []engine.Strategy{engine.StrategyPipeInfer, engine.StrategyIterative} {
		t.Run(strategy.String(), func(t *testing.T) {
			opts := testOpts(strategy, 3, 0.01)
			ref, err := ReferenceGreedy(opts, opts.CFG.MaxNew)
			if err != nil {
				t.Fatal(err)
			}
			var first [6]int64
			for rep := range 3 {
				so := opts.oneSession()
				p, err := buildServePlan(&so, strategy)
				if err != nil {
					t.Fatal(err)
				}
				out, err := backend.Solo(backend.Simulate(&p.Plan, link, func(int) backend.Source {
					return source{p, newWeights(1)}
				}))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(out.Tokens, ref) {
					t.Fatalf("run %d: %v\nreference %v", rep, out.Tokens, ref)
				}
				s := out.Stats
				got := [6]int64{int64(s.Proposed), int64(s.Accepted), int64(s.RunsLaunched),
					int64(s.RunsCancelled), int64(s.DraftYields), int64(s.Done)}
				if rep == 0 {
					first = got
					t.Logf("proposed %d, accepted %d, runs launched %d, cancelled %d, draft yields %d, done at %v",
						got[0], got[1], got[2], got[3], got[4], time.Duration(got[5]))
				} else if got != first {
					t.Fatalf("run %d: (proposed, accepted, launched, cancelled, yields, done) = %v, run 0 had %v", rep, got, first)
				}
			}
		})
	}
}
