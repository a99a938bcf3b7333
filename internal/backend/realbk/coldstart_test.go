package realbk

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/comm/faultcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// within fails the test unless f returns before the deadline: the stand-in
// for "does not hang" (a hung rank cannot be stopped, only reported).
func within(t *testing.T, d time.Duration, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s still running after %v: the stages were never released", what, d)
		return nil
	}
}

// TestServeHeadErrorReturns: a head that fails after the stage ranks are
// in their worker loops must release them. The scheduler refuses
// speculation over one-sequence namespaces, which only the head notices.
func TestServeHeadErrorReturns(t *testing.T) {
	err := within(t, 3*time.Second, "Serve", func() error {
		_, err := Serve(ServeOptions{
			Nodes: 3, ModelCfg: serveModel(4), Seed: 5,
			Speculate: true, SeqsPerSession: 1, MaxSessions: 1,
			Requests: serveRequests(1, 4),
		})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "SeqsPerSession") {
		t.Fatalf("Serve returned %v, want the scheduler's configuration error", err)
	}
}

// TestRunHeadErrorReturns is the single-request counterpart. Without a
// watchdog a result lost on the way to the head is an error the moment a
// newer run's result proves it, and by then both stages are deep in their
// worker loops.
func TestRunHeadErrorReturns(t *testing.T) {
	opts := testOpts(engine.StrategyPipeInfer, 3, 0.05)
	opts.CFG.SpecCutoff = 0.02 // speculate at once: run 3 must be in flight behind run 2
	lost := &faultcomm.Plan{Seed: 1, Rules: []faultcomm.Rule{
		{Src: 2, Dst: 0, Tag: int(comm.TagResult), Kind: faultcomm.Drop, Nth: 2},
	}}
	err := within(t, 3*time.Second, "Run", func() error {
		cluster := chancomm.New(opts.Nodes)
		shared := newWeights(opts.Nodes)
		errs := make([]error, opts.Nodes)
		var wg sync.WaitGroup
		for r := 1; r < opts.Nodes; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[r] = serveRank(cluster.Endpoint(r), opts.oneSession(), shared, opts.Strategy)
			}()
		}
		_, errs[0] = serveRank(faultcomm.Wrap(cluster.Endpoint(0), lost), opts.oneSession(), shared, opts.Strategy)
		wg.Wait()
		for r := 1; r < opts.Nodes; r++ {
			// Released mid-run, a stage still holds the cells of the runs it
			// evaluated: the drain check may say so, and nothing else fails.
			if errs[r] != nil && !strings.Contains(errs[r].Error(), "KV leak") {
				t.Errorf("stage rank %d: %v", r, errs[r])
			}
		}
		return errs[0]
	})
	if err == nil || !strings.Contains(err.Error(), "result lost") {
		t.Fatalf("head returned %v, want the lost-result error", err)
	}
}

// TestPerNodeMemSumsToModel: per-node memory (§V-A metric 4) is what each
// rank holds resident. Over three ranks that are processes of their own
// (the decode_tcp shape: no speculation, the head is stage 0) the weights
// sum to exactly one target — nobody is charged an end it does not hold,
// nobody holds a layer it does not evaluate — and a speculating
// in-process serve adds exactly one draft on its dedicated head.
func TestPerNodeMemSumsToModel(t *testing.T) {
	mcfg := serveModel(6)
	whole, err := model.New(mcfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	base := ServeOptions{
		Nodes: 3, ModelCfg: mcfg, Seed: 13, DraftNoise: 0.01,
		CFG:      engine.Config{MaxNew: 6, SpecCutoff: 0.02},
		Requests: serveRequests(4, 6),
	}
	// kvBytes is the K/V tensor storage the plan gives every stage, and
	// the draft runner when there is one.
	kvBytes := func(opts ServeOptions) int64 {
		p, err := buildServePlan(&opts, opts.strategy())
		if err != nil {
			t.Fatal(err)
		}
		cell := int64(2 * mcfg.KVDim() * 4)
		total := int64(0)
		for si := range p.topo.Stages {
			total += int64(p.hi[si]-p.lo[si]) * int64(kvpage.New(p.kv).Size()) * cell
		}
		if opts.Speculate {
			total += int64(mcfg.NLayers) * int64(kvpage.NewCells(p.kv.Cells).Size()) * cell
		}
		return total
	}
	sum := func(mem []int64) (total int64) {
		for _, m := range mem {
			total += m
		}
		return total
	}

	t.Run("three processes", func(t *testing.T) {
		opts := base
		opts.MaxSessions, opts.MaxBatch = 4, 4
		cluster := chancomm.New(opts.Nodes)
		outs := make([]ServeOutcome, opts.Nodes)
		errs := make([]error, opts.Nodes)
		var wg sync.WaitGroup
		for r := 0; r < opts.Nodes; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[r], errs[r] = ServeRank(cluster.Endpoint(r), opts)
			}()
		}
		wg.Wait()
		weights := -kvBytes(opts)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
			weights += outs[r].PerNodeMem[r]
		}
		if weights != whole.Bytes() {
			t.Fatalf("three ranks hold %d bytes of weights between them, one target is %d", weights, whole.Bytes())
		}
		// The middle rank holds two layers and neither end.
		mid, err := model.NewStage(mcfg, 13, 2, 4, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := outs[1].PerNodeMem[1] - kvBytes(opts)/3; got != mid.Bytes() {
			t.Fatalf("middle rank is charged %d bytes of weights, its two layers weigh %d", got, mid.Bytes())
		}
	})

	t.Run("speculating in-process", func(t *testing.T) {
		opts := base
		opts.Speculate, opts.MaxSessions = true, 2
		out, err := Serve(opts)
		if err != nil {
			t.Fatal(err)
		}
		draft := model.NewDraft(whole, opts.DraftNoise, opts.Seed^0xd4af)
		if got := sum(out.PerNodeMem) - kvBytes(opts); got != whole.Bytes()+draft.Bytes() {
			t.Fatalf("ranks hold %d bytes of weights, one target plus one draft is %d", got, whole.Bytes()+draft.Bytes())
		}
	})
}

// TestDraftBuildFollowsFirstPrefill: the head derives its draft only once
// the first run — the first prefill — has been handed to the transport,
// so the derivation overlaps the prefill's transit instead of delaying
// it. Order is read off the head's flight ring, not off a clock. The same
// serve must also publish every rank's build time.
func TestDraftBuildFollowsFirstPrefill(t *testing.T) {
	reg := telemetry.New()
	var mu sync.Mutex
	ready := map[int][2]int{}
	out, err := Serve(ServeOptions{
		Nodes: 3, ModelCfg: serveModel(4), Seed: 9,
		Speculate: true, MaxSessions: 2,
		CFG:      engine.Config{MaxNew: 8, SpecCutoff: 0.02},
		Requests: serveRequests(2, 8),
		Obs:      reg,
		OnWeights: func(rank, lo, hi int, _ time.Duration) {
			mu.Lock()
			ready[rank] = [2]int{lo, hi}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Proposed == 0 {
		t.Fatal("the serve never drafted")
	}
	var head []trace.FlightEvent
	for _, n := range reg.DumpFlight("test").Nodes {
		if n.Name == "head" {
			head = n.Events
		}
	}
	launch, builds := -1, 0
	for i, e := range head {
		switch e.Kind {
		case trace.FlightLaunch:
			if launch < 0 {
				launch = i
			}
		case trace.FlightBuild:
			builds++
			if launch < 0 {
				t.Fatalf("draft derivation began at event %d, before any run was launched", i)
			}
		}
	}
	if builds != 1 {
		t.Fatalf("head recorded %d draft derivations, want exactly 1", builds)
	}

	// A dedicated head holds no target layers; the stages split the four.
	if want := map[int][2]int{0: {0, 0}, 1: {0, 2}, 2: {2, 4}}; fmt.Sprint(ready) != fmt.Sprint(want) {
		t.Fatalf("OnWeights saw %v, want %v", ready, want)
	}
	var prom bytes.Buffer
	if _, err := reg.WriteTo(&prom); err != nil {
		t.Fatal(err)
	}
	for _, rank := range []string{"rank0", "rank1", "rank2", "draft"} {
		if !strings.Contains(prom.String(), fmt.Sprintf("pipeinfer_model_build_seconds{rank=%q}", rank)) {
			t.Fatalf("/metrics lacks pipeinfer_model_build_seconds for %s:\n%s", rank, prom.String())
		}
	}
}
