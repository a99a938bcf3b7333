package realbk

import (
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/faultcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
)

// wrapPlan wires a shared fault plan over every rank's endpoint.
func wrapPlan(p *faultcomm.Plan) func(int, comm.Endpoint) comm.Endpoint {
	return func(_ int, ep comm.Endpoint) comm.Endpoint { return faultcomm.Wrap(ep, p) }
}

// TestServeFaultRecoveryParity is the PR-6 acceptance gate on the real
// backend: 16 concurrent sessions served through a seeded fault plan —
// dropped result frames (lost results), delayed activations, a
// transiently stalled stage link (partition window) — must each produce
// greedy output bit-identical to their serial single-model reference,
// with the watchdog detecting the losses and session recovery (evict +
// prefix-recompute readmission) repairing them. Zero hung runs: the test
// completing at all proves liveness, and Serve's internal end-state check
// proves every stage drained back to 0 used KV cells.
func TestServeFaultRecoveryParity(t *testing.T) {
	const maxNew = 9
	cases := []struct {
		name      string
		nodes     int
		speculate bool
		width     int
		timeout   time.Duration
		plan      *faultcomm.Plan
	}{
		{
			// Iterative pipeline: head is stage 0, results flow 1 -> 0.
			// Three results are dropped outright (the seq fence proves each
			// lost when its successor arrives), activations jitter, and the
			// head->stage link blacks out for a real-time window mid-run.
			name: "iterative-drops-and-partition", nodes: 2, width: 1,
			timeout: 8 * time.Millisecond,
			plan: &faultcomm.Plan{Seed: 42, Rules: []faultcomm.Rule{
				{Src: 1, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 5},
				{Src: 1, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 23},
				{Src: 1, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 40},
				{Src: 0, Dst: 1, Tag: int(comm.TagActivation), Kind: faultcomm.Delay, Prob: 0.05, Delay: 300 * time.Microsecond},
				{Src: 0, Dst: 1, Tag: -1, Kind: faultcomm.Partition, From: 2 * time.Millisecond, Until: 14 * time.Millisecond},
			}},
		},
		{
			// PipeInfer topology (dedicated drafting head, stages 1 and 2):
			// result drops on the last stage's link, a delayed run frame
			// (transient stage stall), an inter-stage partition, and the
			// head->stage-2 cancel stream stalled forever — cancels are
			// advisory, so a dead cancel link costs only wasted compute.
			// The floor sits well above race-slowed speculative prefill:
			// a floor tighter than one re-prefill makes recovery itself
			// time out, and the scheduler fails/readmits forever.
			name: "speculative-drops-stall-partition", nodes: 3, speculate: true, width: 4,
			timeout: 60 * time.Millisecond,
			plan: &faultcomm.Plan{Seed: 7, Rules: []faultcomm.Rule{
				{Src: 2, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 6},
				{Src: 2, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 20},
				{Src: 0, Dst: 1, Tag: int(comm.TagRun), Kind: faultcomm.Delay, Nth: 4, Delay: 3 * time.Millisecond},
				{Src: 0, Dst: 2, Tag: int(comm.TagCancel), Kind: faultcomm.Stall, Nth: 1},
				{Src: 1, Dst: 2, Tag: -1, Kind: faultcomm.Partition, From: 2 * time.Millisecond, Until: 14 * time.Millisecond},
			}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			reqs := serveRequests(16, maxNew)
			cfg := engine.Config{MaxNew: maxNew}
			if tc.speculate {
				cfg.SpecCutoff = 0.02
			}
			recovered := make(map[int]bool)
			opts := ServeOptions{
				Nodes:          tc.nodes,
				CFG:            cfg,
				ModelCfg:       serveModel(4),
				Seed:           21,
				Speculate:      tc.speculate,
				DraftNoise:     0.01,
				MaxSessions:    16,
				SeqsPerSession: tc.width,
				RunTimeout:     tc.timeout,
				WrapEndpoint:   wrapPlan(tc.plan),
				OnRecover:      func(req int) { recovered[req] = true },
				Requests:       reqs,
			}
			out, err := Serve(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range out.Results {
				ref, err := ReferenceGreedy(Options{
					ModelCfg: opts.ModelCfg, Seed: opts.Seed, Prompt: reqs[i].Prompt,
				}, maxNew)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Tokens) != len(ref) {
					t.Fatalf("request %d: %d tokens, want %d (recovered=%v)", i, len(res.Tokens), len(ref), recovered[i])
				}
				for j := range ref {
					if res.Tokens[j] != ref[j] {
						t.Fatalf("request %d diverged from its serial reference at token %d under faults (recovered=%v)",
							i, j, recovered[i])
					}
				}
			}
			if tc.plan.Stats().Total() == 0 {
				t.Fatal("the fault plan injected nothing — the test exercised a clean run")
			}
			if out.Stats.RunTimeouts == 0 {
				t.Fatalf("faults injected (%+v) but the watchdog never declared a run failed", tc.plan.Stats())
			}
			// Non-speculative runs are always live, so every dropped result
			// forces a session recovery. Speculative drops may land on runs
			// the head already cancelled — failure then only cleans up, so
			// Recoveries is not structurally guaranteed there.
			if !tc.speculate && out.Stats.Recoveries == 0 {
				t.Fatalf("%d runs failed but no session was recovered", out.Stats.RunTimeouts)
			}
		})
	}
}

// TestServeFaultShutdownDrains aborts runs mid-flight at a high rate — a
// long partition window on the stage link while the watchdog fires — and
// checks the end state: serving completes (no hung run), every request
// still gets its full output, and Serve's internal serveCacheClean gate
// (structural invariants + 0 used cells on every stage) passes, proving
// cancelled and failed runs' KV partitions all drained.
func TestServeFaultShutdownDrains(t *testing.T) {
	const maxNew = 6
	plan := &faultcomm.Plan{Seed: 3, Rules: []faultcomm.Rule{
		{Src: 0, Dst: 1, Tag: -1, Kind: faultcomm.Partition, From: 0, Until: 20 * time.Millisecond},
		{Src: 1, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 9},
	}}
	reqs := serveRequests(8, maxNew)
	out, err := Serve(ServeOptions{
		Nodes:        2,
		CFG:          engine.Config{MaxNew: maxNew},
		ModelCfg:     serveModel(4),
		Seed:         21,
		MaxSessions:  8,
		RunTimeout:   5 * time.Millisecond,
		WrapEndpoint: wrapPlan(plan),
		Requests:     reqs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		if len(res.Tokens) != maxNew {
			t.Fatalf("request %d: %d tokens, want %d", i, len(res.Tokens), maxNew)
		}
	}
	if out.Stats.RunTimeouts == 0 {
		t.Fatal("the blackout window never tripped the watchdog")
	}
}

// TestServeTinyKVGracefulPressure pins the launch dry run (PR 6): with a
// KV cache squeezed to a fraction of the working set, batching and
// speculation racing for pages, launches that the admission accounting
// would once have let panic mid-placement ("shadow cache underprovisioned
// for admitted launch") now degrade into reclamation or a parked session
// — and every output stays bit-identical.
//
// The squeeze is sized so pressure follows from arithmetic (the argument
// is spelled out on TestServeOversubscribedSpeculative): 16 pages of 4
// cells, a finished stream (61-63 cells) needs all 16, and a second
// session holds at least a page of prompt before the first can launch
// its second run.
func TestServeTinyKVGracefulPressure(t *testing.T) {
	const maxNew = 58
	reqs := serveRequests(8, maxNew)
	opts := ServeOptions{
		Nodes:          3,
		CFG:            engine.Config{MaxNew: maxNew, SpecCutoff: 0.02},
		ModelCfg:       serveModel(4),
		Seed:           21,
		Speculate:      true,
		DraftNoise:     0.01,
		MaxSessions:    8,
		SeqsPerSession: 2,
		MaxBatch:       4,
		KVCells:        64,
		KVPageSize:     4,
		Requests:       reqs,
	}
	out, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		ref, err := ReferenceGreedy(Options{
			ModelCfg: opts.ModelCfg, Seed: opts.Seed, Prompt: reqs[i].Prompt,
		}, maxNew)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if res.Tokens[j] != ref[j] {
				t.Fatalf("request %d diverged at token %d under tiny-KV pressure", i, j)
			}
		}
	}
	if out.Stats.Preemptions == 0 {
		t.Fatal("every session finished inside a cache that cannot hold one finished stream beside another's prompt, yet none was ever parked")
	}
}
