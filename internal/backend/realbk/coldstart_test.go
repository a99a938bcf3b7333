package realbk

import (
	"bytes"
	"fmt"
	"os"
	"slices"
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
	"github.com/pipeinfer/pipeinfer/internal/token"
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
		for _, layers := range p.Split {
			total += int64(layers) * int64(kvpage.New(p.Serve.KV).Size()) * cell
		}
		if opts.Speculate {
			total += int64(mcfg.NLayers) * int64(kvpage.NewCells(p.Serve.KV.Cells).Size()) * cell
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

// TestMain derives every lazy head's draft on the spot, on the head
// goroutine, the moment its first run is on the wire, so that the draft is
// ready at the first decode step. Every speculative gate in this package
// then speculates from its first token on, whatever the host's
// scheduling: on its own goroutine the derivation finishes whenever the
// host gets to it, and the head decodes without speculation until then.
// TestDecodeWhileDraftHeld holds the derivation back instead (holdDraft),
// and TestDraftDerivesInBackground runs it as a serve does (deriveAsync).
func TestMain(m *testing.M) {
	deriveOn = func(derive func()) { derive() }
	os.Exit(m.Run())
}

// holdDraft holds the next lazy head's derivation back, on its own
// goroutine, until release is called; release returns once the draft is
// derived, so the head can draft from its next step on.
func holdDraft(t *testing.T) (release func()) {
	t.Helper()
	prev := deriveOn
	gate, derived := make(chan struct{}), make(chan struct{})
	var open sync.Once
	deriveOn = func(derive func()) {
		go func() {
			<-gate
			derive()
			close(derived)
		}()
	}
	release = func() {
		open.Do(func() { close(gate) })
		<-derived
	}
	t.Cleanup(func() {
		open.Do(func() { close(gate) })
		deriveOn = prev
	})
	return release
}

// TestDraftBuildFollowsFirstPrefill: the head derives its draft only once
// the first run — the first prefill — has been handed to the transport,
// so the derivation overlaps the prefill's transit instead of delaying
// it, and speculates only once the draft is ready (derivationOrder). The
// same serve must also publish every rank's build time.
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
	derivationOrder(t, reg)

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

// derivationOrder reads the order of the head's events off its flight
// ring, not off a clock: first launch, derivation begun, draft ready,
// first speculative launch, with exactly one of each build event.
func derivationOrder(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	var head []trace.FlightEvent
	for _, n := range reg.DumpFlight("test").Nodes {
		if n.Name == "head" {
			head = n.Events
		}
	}
	launch, began, readied, spec := -1, -1, -1, -1
	builds, readies := 0, 0
	for i, e := range head {
		switch {
		case e.Kind == trace.FlightLaunch:
			if launch < 0 {
				launch = i
			}
			if spec < 0 && engine.RunKind(e.RunKind()) == engine.KindSpec {
				spec = i
			}
		case e.Kind == trace.FlightBuild && e.Arg == trace.BuildBegin:
			began, builds = i, builds+1
		case e.Kind == trace.FlightBuild && e.Arg == trace.BuildReady:
			readied, readies = i, readies+1
		}
	}
	if builds != 1 || readies != 1 {
		t.Fatalf("head recorded %d draft derivations and %d ready events, want exactly 1 of each", builds, readies)
	}
	if !(0 <= launch && launch < began && began < readied && readied < spec) {
		t.Fatalf("head events out of order: first launch %d, derivation %d, ready %d, first speculative launch %d",
			launch, began, readied, spec)
	}
}

// TestDecodeWhileDraftHeld: a draft that is not ready yet costs
// speculation, never progress. With the head's derivation held back, the
// one-session serves of PipeInfer and of the speculative baseline keep
// streaming the target's greedy tokens and propose nothing. Released
// mid-request, the head catches its draft up on the accepted context and
// speculates, and the stream stays the reference. Held past the end of
// the request, the derivation still settles before the serve returns,
// and the head is charged its draft all the same.
func TestDecodeWhileDraftHeld(t *testing.T) {
	const maxNew, releaseAt = 32, 8
	for _, strategy := range []engine.Strategy{engine.StrategyPipeInfer, engine.StrategySpeculative} {
		t.Run(strategy.String(), func(t *testing.T) {
			opts := testOpts(strategy, 3, 0.01)
			opts.CFG.MaxNew, opts.CFG.SpecCutoff = maxNew, 0.02
			ref, err := ReferenceGreedy(opts, maxNew)
			if err != nil {
				t.Fatal(err)
			}
			same := func(what string, got []token.Token) {
				t.Helper()
				if !slices.Equal(got, ref) {
					t.Fatalf("%s: streamed %v\nreference %v", what, got, ref)
				}
			}

			// Released once releaseAt tokens have streamed.
			release := holdDraft(t)
			reg := telemetry.New()
			so := opts.oneSession()
			so.Obs = reg
			var got []token.Token
			so.OnToken = func(_ int, tok token.Token) {
				if got = append(got, tok); len(got) == releaseAt {
					if p := reg.Snapshot().Proposed; p != 0 {
						t.Errorf("%d tokens proposed while the draft was held", p)
					}
					release()
				}
			}
			// A head that fails while its draft is held waits in Settle for
			// a release that never comes: within turns that into a failure.
			var early ServeOutcome
			if err := within(t, 30*time.Second, "the serve", func() (err error) {
				early, err = spawn(so, strategy)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			same("released mid-request", got)
			if early.Stats.Proposed == 0 {
				t.Fatal("the head never speculated once its draft was ready")
			}

			// Held until the request has ended.
			release = holdDraft(t)
			so = opts.oneSession()
			got = nil
			streamed, served := make(chan struct{}), make(chan struct{})
			so.OnToken = func(_ int, tok token.Token) {
				if got = append(got, tok); len(got) == maxNew {
					close(streamed)
				}
			}
			var late ServeOutcome
			go func() {
				defer close(served)
				late, err = spawn(so, strategy)
			}()
			select {
			case <-streamed:
			case <-time.After(30 * time.Second):
				t.Fatal("the request never finished while its draft was held")
			}
			select {
			case <-served:
				t.Fatal("the serve returned with the draft derivation still running")
			case <-time.After(20 * time.Millisecond):
			}
			release()
			select {
			case <-served:
			case <-time.After(30 * time.Second):
				t.Fatal("the serve never returned after the release")
			}
			if err != nil {
				t.Fatal(err)
			}
			same("held past the request", got)
			if late.Stats.Proposed != 0 {
				t.Fatalf("%d tokens proposed with the draft held throughout", late.Stats.Proposed)
			}
			if late.PerNodeMem[0] != early.PerNodeMem[0] {
				t.Fatalf("head charged %d bytes with its draft held throughout, %d with it released", late.PerNodeMem[0], early.PerNodeMem[0])
			}
		})
	}
}

// TestDraftDerivesInBackground runs the derivation as a serve does, on a
// goroutine of its own (deriveAsync), under the one-session serves of
// PipeInfer and of the speculative baseline. The head goes on decoding
// the target's greedy stream while the draft derives; once the draft is
// ready it speculates, and the stream stays the reference.
func TestDraftDerivesInBackground(t *testing.T) {
	const maxNew, waitAt = 32, 4
	for _, strategy := range []engine.Strategy{engine.StrategyPipeInfer, engine.StrategySpeculative} {
		t.Run(strategy.String(), func(t *testing.T) {
			prev := deriveOn
			derived := make(chan struct{})
			deriveOn = func(derive func()) {
				deriveAsync(func() {
					defer close(derived)
					derive()
				})
			}
			t.Cleanup(func() { deriveOn = prev })

			opts := testOpts(strategy, 3, 0.01)
			opts.CFG.MaxNew, opts.CFG.SpecCutoff = maxNew, 0.02
			ref, err := ReferenceGreedy(opts, maxNew)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New()
			so := opts.oneSession()
			so.Obs = reg
			var got []token.Token
			so.OnToken = func(_ int, tok token.Token) {
				// Give a slow host's derivation the time to finish before
				// the request does; the head sees it ready at its own pace.
				if got = append(got, tok); len(got) == waitAt {
					select {
					case <-derived:
					case <-time.After(30 * time.Second):
						t.Error("the draft derivation never finished")
					}
				}
			}
			var out ServeOutcome
			if err := within(t, 60*time.Second, "the serve", func() (err error) {
				out, err = spawn(so, strategy)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("streamed %v\nreference %v", got, ref)
			}
			if out.Stats.Proposed == 0 {
				t.Fatal("the head never speculated once its draft was ready")
			}
			derivationOrder(t, reg)
		})
	}
}
