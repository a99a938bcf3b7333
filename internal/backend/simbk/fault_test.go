package simbk

import (
	"strings"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/faultcomm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
)

// TestSimServeFaultRecoveryParity replays the PR-6 fault-tolerance
// acceptance in virtual time, where every scale is exact and free:
// dropped result frames, delayed run frames, and a 15-virtual-second
// network blackout mid-run must leave all 16 sessions bit-identical to
// their oracle streams, with the watchdog catching the losses and
// eviction + prefix-recompute repairing them. Virtual-time scales: runs
// land roughly every 270ms of cluster time, so a 10s watchdog floor
// clears any healthy run by two orders of magnitude while the blackout
// (5s..20s) reliably outlives it.
func TestSimServeFaultRecoveryParity(t *testing.T) {
	const maxNew = 24
	cases := []struct {
		name      string
		nodes     int
		speculate bool
		width     int
		plan      *faultcomm.Plan
	}{
		{
			// Iterative: head doubles as stage 0, results flow 2 -> 0. The
			// blackout hits the result link: partition windows close in
			// receiver-local time, and the head is the one receiver whose
			// clock always advances (drafting compute, watchdog waits) —
			// partitioning a mid-pipeline stage's sole input link would
			// freeze that stage's clock short of Until forever.
			name: "iterative-drops-and-blackout", nodes: 3, width: 1,
			plan: &faultcomm.Plan{Seed: 11, Rules: []faultcomm.Rule{
				{Src: 2, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 40},
				{Src: 2, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 150},
				{Src: 1, Dst: 2, Tag: int(comm.TagRun), Kind: faultcomm.Delay, Prob: 0.03, Delay: 20 * time.Millisecond},
				{Src: 2, Dst: 0, Tag: -1, Kind: faultcomm.Partition, From: 5 * time.Second, Until: 20 * time.Second},
			}},
		},
		{
			// PipeInfer: dedicated draft head, stages at ranks 1 and 2.
			name: "speculative-drops-and-blackout", nodes: 3, speculate: true, width: 4,
			plan: &faultcomm.Plan{Seed: 13, Rules: []faultcomm.Rule{
				{Src: 2, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 30},
				{Src: 2, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 90},
				{Src: 0, Dst: 1, Tag: int(comm.TagRun), Kind: faultcomm.Delay, Nth: 7, Delay: 2 * time.Second},
				{Src: 2, Dst: 0, Tag: -1, Kind: faultcomm.Partition, From: 5 * time.Second, Until: 20 * time.Second},
			}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := ServeOptions{
				Cluster:        cost.ClusterC().Take(tc.nodes),
				Pair:           cost.CPUPairs()[0],
				CFG:            engine.Config{MaxNew: maxNew},
				Sessions:       16,
				PromptLen:      12,
				Seed:           5,
				Speculate:      tc.speculate,
				MaxSessions:    16,
				SeqsPerSession: tc.width,
				RunTimeout:     10 * time.Second,
				WrapEndpoint: func(_ int, ep comm.Endpoint) comm.Endpoint {
					return faultcomm.Wrap(ep, tc.plan)
				},
			}
			out, err := Serve(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range out.Results {
				ref := ServeReference(opts, i, maxNew)
				if len(res.Tokens) != len(ref) {
					t.Fatalf("session %d: %d tokens, want %d", i, len(res.Tokens), len(ref))
				}
				for j := range ref {
					if res.Tokens[j] != ref[j] {
						t.Fatalf("session %d deviated from its oracle stream at token %d under faults", i, j)
					}
				}
			}
			if tc.plan.Stats().Total() == 0 {
				t.Fatal("the fault plan injected nothing — the test exercised a clean run")
			}
			// A delay rule that matches no traffic (a stream nothing sends
			// on any more) would leave the case testing less than it says.
			for i, r := range tc.plan.Rules {
				if r.Kind == faultcomm.Delay && tc.plan.RuleHits(i) == 0 {
					t.Fatalf("delay rule %+v held no message", r)
				}
			}
			if out.Stats.RunTimeouts == 0 {
				t.Fatalf("faults injected (%+v) but the watchdog never declared a run failed", tc.plan.Stats())
			}
			// See TestServeFaultRecoveryParity (realbk): speculative drops
			// can land on already-cancelled runs, so only the iterative
			// case structurally guarantees a session recovery.
			if !tc.speculate && out.Stats.Recoveries == 0 {
				t.Fatalf("%d runs failed but no session was recovered", out.Stats.RunTimeouts)
			}
		})
	}
}

// TestSimServeHeadErrorSurfaces: a head that gives up must say why. With
// no watchdog armed, a dropped result frame is an error the head cannot
// recover from; the stages are still parked in their worker loops, and
// unless the head releases them the kernel reports their deadlock and the
// head's own error is lost.
func TestSimServeHeadErrorSurfaces(t *testing.T) {
	plan := &faultcomm.Plan{Seed: 11, Rules: []faultcomm.Rule{
		{Src: 2, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 10},
	}}
	_, err := Serve(ServeOptions{
		Cluster:  cost.ClusterC().Take(3),
		Pair:     cost.CPUPairs()[0],
		CFG:      engine.Config{MaxNew: 24},
		Sessions: 4, PromptLen: 12, Seed: 5,
		WrapEndpoint: func(_ int, ep comm.Endpoint) comm.Endpoint {
			return faultcomm.Wrap(ep, plan)
		},
	})
	if err == nil || !strings.Contains(err.Error(), "result lost") || strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("a lost result with no watchdog armed reported as: %v", err)
	}
}

// TestSimServeConfigErrorSurfaces: a configuration the scheduler refuses
// to start on reaches the caller as the scheduler's error, not as the
// deadlock of stages the head never released.
func TestSimServeConfigErrorSurfaces(t *testing.T) {
	_, err := Serve(ServeOptions{
		Cluster:  cost.ClusterC().Take(3),
		Pair:     cost.CPUPairs()[0],
		CFG:      engine.Config{MaxNew: 8},
		Sessions: 1, PromptLen: 8, Seed: 1,
		Speculate: true, SeqsPerSession: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "SeqsPerSession") || strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("speculation over one-sequence namespaces reported as: %v", err)
	}
}
