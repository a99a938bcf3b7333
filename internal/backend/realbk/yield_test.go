package realbk

import (
	"runtime"
	"slices"
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/comm/faultcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// TestDraftResumesWhereItStopped pins the head's side of a yield: a draft
// cut short between layers proposes nothing, and the next Propose that
// extends its context resumes it at the next layer — the probe counts
// show no layer ran twice — with the proposal an uninterrupted head
// makes, bit for bit. A suspended slice whose tokens the context no
// longer extends (the result rejected them), or that another stream's
// context overtakes, is dropped with its cells.
func TestDraftResumesWhereItStopped(t *testing.T) {
	cfg := serveModel(4)
	L := cfg.NLayers
	m, err := model.New(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	draft := model.NewDraft(m, 0.02, 21^0xd4af)
	plain := NewHead(model.NewRunner(draft, 256), cfg.VocabSize)
	h := NewHead(model.NewRunner(draft, 256), cfg.VocabSize)
	probes, waiting := 0, false
	h.YieldTo(func() bool {
		probes++
		return waiting
	})
	ctx := make([]token.Token, catchUpSlice+4) // a catch-up of two slices
	for i := range ctx {
		ctx[i] = token.Token(token.NumSpecial + (7*i+3)%250)
	}
	same := func(what string, ctx []token.Token) {
		t.Helper()
		gotT, gotP, ok := h.Propose(ctx, 2)
		if !ok {
			t.Fatalf("%s: cut short with no result waiting", what)
		}
		gotT, gotP = slices.Clone(gotT), slices.Clone(gotP)
		wantT, wantP, _ := plain.Propose(ctx, 2)
		if !slices.Equal(gotT, wantT) || !slices.Equal(gotP, wantP) {
			t.Fatalf("%s: proposed %v %v, an uninterrupted head %v %v", what, gotT, gotP, wantT, wantP)
		}
	}
	cut := func(what string, ctx []token.Token) {
		t.Helper()
		waiting = true
		if toks, _, ok := h.Propose(ctx, 2); ok || toks != nil {
			t.Fatalf("%s: a result waited and the draft proposed %v (ok %v)", what, toks, ok)
		}
		waiting = false
	}

	// The catch-up yields after its first layer, then resumes there: one
	// probe, then the first slice's remaining L-2 and the second's L-1.
	cut("catch-up", ctx)
	if probes != 1 {
		t.Fatalf("a yielding catch-up asked the probe %d times, want 1", probes)
	}
	same("resumed catch-up", ctx)
	if want := 1 + (L - 2) + (L - 1); probes != want {
		t.Fatalf("catch-up asked the probe %d times in all, want %d: a layer ran twice", probes, want)
	}

	// A one-token step cut short and resumed as its context grows.
	next, _, _ := plain.Propose(ctx, 1)
	grown := append(slices.Clone(ctx), next[0])
	cut("step", grown)
	probes = 0
	same("resumed step", append(slices.Clone(grown), token.NumSpecial+1))
	if want := (L - 2) + (L - 1); probes != want {
		t.Fatalf("resumed step asked the probe %d times, want %d", probes, want)
	}

	// The result rejects the suspended token: its cells go, and the
	// context the target chose is evaluated instead.
	cut("rejected step", append(slices.Clone(ctx), token.NumSpecial+2))
	same("after a rejection", append(slices.Clone(ctx), token.NumSpecial+3))
	if got, want := h.draft.Cache.Used(), len(ctx)+1; got != want {
		t.Fatalf("draft cache holds %d cells after a rejected suspension, want %d", got, want)
	}

	// Another stream's context comes first: the suspension is dropped.
	other := []token.Token{token.NumSpecial + 200, token.NumSpecial + 201}
	cut("step before a switch", append(slices.Clone(ctx), token.NumSpecial+4))
	same("other stream", other)
	same("back on the first stream", append(slices.Clone(ctx), token.NumSpecial+4))
	if got, want := h.draft.Cache.Used(), len(ctx)+1+len(other); got != want {
		t.Fatalf("draft cache holds %d cells after a dropped suspension, want %d", got, want)
	}
	if err := h.draft.Cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDraftYieldsToResult is a speculating serve over a head and two
// WorkerLoop stages whose results arrive mid-draft: at every ninth layer
// boundary the head's probe waits for the oldest run's result before it
// answers — a draft slower than the pipeline, at any number of Ps. The
// results reach the head late (holdResults), so no draft is cut short by
// a result that came on its own: those can cut every draft, and the serve
// would then speculate only by timing. The drafts yield and resume,
// proposals are made, and the output is the greedy reference's.
func TestDraftYieldsToResult(t *testing.T) {
	cfg := serveModel(4)
	const seed, maxNew = 23, 48
	m, err := model.New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []token.Token{token.BOS, token.NumSpecial + 10, token.NumSpecial + 45, token.NumSpecial + 200, token.NumSpecial + 33}
	kv := kvpage.Config{Cells: 512, ShardSeqs: 4}
	cl := chancomm.New(3)
	topo := engine.Topology{Head: 0, Stages: []int{1, 2}}
	stages := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w := newStage(m, 2*i, 2*i+2, i == 0, i == 1, kv)
		go func() { stages <- engine.WorkerLoop(cl.Endpoint(1+i), topo, w, engine.WorkerObs{}) }()
	}
	bk := NewHead(model.NewRunner(model.NewDraft(m, 0.01, seed^0xd4af), 512), cfg.VocabSize)
	h, err := engine.NewHead(faultcomm.Wrap(cl.Endpoint(0), holdResults()), topo, engine.Config{MaxNew: maxNew}, bk, nil)
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	bk.YieldTo(func() bool {
		if probes++; probes%9 == 0 && h.Inflight() > 0 {
			for !h.ResultWaiting() {
				runtime.Gosched()
			}
		}
		return h.YieldDraft()
	})
	sched, err := serve.New(h, serve.Config{MaxSessions: 1, SeqsPerSession: 4, Speculate: true, KV: kv},
		[]serve.Request{{Prompt: prompt, MaxNew: maxNew}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-stages; err != nil {
			t.Fatal(err)
		}
	}
	ref, err := ReferenceGreedy(Options{ModelCfg: cfg, Seed: seed, Prompt: prompt}, maxNew)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res[0].Tokens, ref) {
		t.Fatalf("output diverged from the greedy reference:\n got %v\nwant %v", res[0].Tokens, ref)
	}
	st := h.Stats.Snapshot()
	if st.Proposed == 0 || st.DraftYields == 0 {
		t.Fatalf("%d tokens proposed, %d drafts yielded over %d probes: the drafts never yielded and resumed", st.Proposed, st.DraftYields, probes)
	}
	t.Logf("%d proposed, %d accepted, %d drafts yielded, %d probes", st.Proposed, st.Accepted, st.DraftYields, probes)
}
