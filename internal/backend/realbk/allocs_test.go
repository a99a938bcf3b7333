package realbk

import (
	"time"

	"testing"

	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/comm/chancomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/model"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/telemetry"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// TestEvalAllocs asserts the stage-worker Eval path is allocation-free in
// steady state: batch assembly, forward pass, logits and payload encoding
// all run out of per-worker staging buffers. This is the per-run cost
// every pipeline stage pays continuously under asynchronous speculation.
func TestEvalAllocs(t *testing.T) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)

	cfg := model.TinyConfig()
	m, err := model.New(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(m, 0, cfg.NLayers, true, true, kvpage.Config{Cells: 256})

	seqs := kvcache.NewSeqSet(kvcache.Canonical)
	prefill := &engine.RunMsg{ID: 1, Kind: engine.KindPrefill, Tokens: make([]engine.TokenPlace, 16)}
	for i := range prefill.Tokens {
		prefill.Tokens[i] = engine.TokenPlace{
			Tok: token.Token(token.NumSpecial + i), Pos: int32(i), Seqs: seqs,
		}
	}
	notCancelled := func() bool { return false }
	if _, _, ok := w.Eval(prefill, nil, notCancelled); !ok {
		t.Fatal("prefill failed")
	}

	pos := int32(len(prefill.Tokens))
	step := &engine.RunMsg{ID: 2, Kind: engine.KindNonSpec, Tokens: []engine.TokenPlace{
		{Tok: token.Token(token.NumSpecial + 5), Pos: pos, Seqs: seqs},
	}}
	rollback := []kvcache.Op{{Kind: kvcache.OpSeqRm, Src: kvcache.Canonical, P0: pos, P1: pos + 1}}
	run := func() {
		if _, _, ok := w.Eval(step, nil, notCancelled); !ok {
			t.Fatal("decode step failed")
		}
		w.ApplyKV(rollback)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("steady-state worker Eval allocates %.1f times, want 0", allocs)
	}
}

// TestServeStepAllocs extends the zero-allocation gate to the serving
// steady state: a session decoding mid-stream — scheduler step, launch,
// inline stage evaluation, result decoding, FIFO bookkeeping and stats —
// performs 0 heap allocations per accepted token. Run messages and
// tracking records cycle through the head's and scheduler's pools, wire
// payloads through the comm pool, and logits decoding through the head
// backend's staging.
func TestServeStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate enforced by the non-race job")
	}
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)

	cfg := model.TinyConfig()
	cfg.NLayers = 4
	m, err := model.New(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	const maxNew = 400
	prompt := make([]token.Token, 8)
	for i := range prompt {
		prompt[i] = token.Token(token.NumSpecial + 3*i)
	}
	w := NewWorker(m, 0, cfg.NLayers, true, true, kvpage.Config{Cells: len(prompt) + maxNew + 64})
	bk := NewHead(nil, cfg.VocabSize)
	cl := chancomm.New(1)
	topo := engine.Topology{Head: 0, Stages: []int{0}}
	h, err := engine.NewHead(cl.Endpoint(0), topo, engine.Config{MaxNew: maxNew}, bk, w)
	if err != nil {
		t.Fatal(err)
	}
	// KV enables the shadow-cache admission path: the zero-alloc gate
	// covers pressure *checking* (the common case); only actual
	// preemption events may allocate.
	sched, err := serve.New(h, serve.Config{
		MaxSessions: 1, SeqsPerSession: 1,
		KV: kvpage.Config{Cells: len(prompt) + maxNew + 64},
	}, []serve.Request{{Prompt: prompt, MaxNew: maxNew}})
	if err != nil {
		t.Fatal(err)
	}

	genOne := func() {
		start := sched.TotalAccepted()
		for sched.TotalAccepted() == start {
			if err := sched.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the pools and rings into steady state.
	for i := 0; i < 50; i++ {
		genOne()
	}
	if allocs := testing.AllocsPerRun(100, genOne); allocs != 0 {
		t.Errorf("serving steady state allocates %.1f times per accepted token, want 0", allocs)
	}
}

// TestServeBatchedStepAllocs extends the zero-allocation gate to batched
// serving steady state: four sessions coalesced into shared multi-row
// runs — batch collection, v3 composition, shadow placement, batched
// inline evaluation, multi-session result-frame encode/decode and the
// per-session demux — perform 0 heap allocations per accepted token.
// Batch row slices, run messages and result frames all cycle through the
// scheduler's pools, comm.GetBuf and per-worker staging.
//
// The run serves with live telemetry fully enabled — streaming latency
// histograms, health gauges, the counted endpoint's link counters, a
// stage meter and the always-on flight recorder — pinning the telemetry
// layer's core contract: observation is atomics-only and adds zero
// allocations to the hot path.
//
// The prefix cache is also on, with prompts sharing a page-aligned
// system prefix so the trie holds published entries (and the registry
// pins shared pages) throughout the measured window: shared-prefix
// bookkeeping must add zero allocations to the decode steady state.
//
// Overload control is armed too (PR 10): a bounded admission queue plus
// per-request completion deadlines, so the brown-out recomputation,
// overload gauge updates and deadline bookkeeping all sit inside the
// measured window. With the queue drained they must stay off the
// allocation path.
func TestServeBatchedStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate enforced by the non-race job")
	}
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)

	cfg := model.TinyConfig()
	cfg.NLayers = 4
	m, err := model.New(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	const (
		maxNew   = 300
		sessions = 4
	)
	reqs := make([]serve.Request, sessions)
	for s := range reqs {
		prompt := make([]token.Token, 24)
		for i := range prompt {
			// Two shared 8-cell pages of system prompt, then a distinct
			// per-session suffix.
			if i < 16 {
				prompt[i] = token.Token(token.NumSpecial + (3 * i))
			} else {
				prompt[i] = token.Token(token.NumSpecial + (3*i+7*s+1)%250)
			}
		}
		// A far-future absolute completion deadline keeps deadline scoring
		// engaged without ever shedding.
		reqs[s] = serve.Request{Prompt: prompt, MaxNew: maxNew, Deadline: time.Hour}
	}
	cells := sessions*(24+maxNew) + 256
	w := NewWorker(m, 0, cfg.NLayers, true, true, kvpage.Config{Cells: cells, PageSize: 8, ShardSeqs: 1})
	bk := NewHead(nil, cfg.VocabSize)
	cl := chancomm.New(1)
	topo := engine.Topology{Head: 0, Stages: []int{0}}
	reg := telemetry.New()
	ep := comm.Counted(cl.Endpoint(0), reg.RegisterLink("rank0"))
	h, err := engine.NewHead(ep, topo, engine.Config{MaxNew: maxNew}, bk, w)
	if err != nil {
		t.Fatal(err)
	}
	h.LocalObs.Meter = reg.RegisterStage("rank0")
	h.LocalObs.Meter.Open(ep.Now())
	h.LocalObs.Flight = reg.Flight().Ring("rank0", 0)
	sched, err := serve.New(h, serve.Config{
		MaxSessions: sessions, SeqsPerSession: 1,
		MaxBatch:    sessions,
		KV:          kvpage.Config{Cells: cells, PageSize: 8, ShardSeqs: 1},
		PrefixCache: true,
		// The armed watchdog's per-launch deadline derivation and
		// per-result re-arm are part of the steady state being gated.
		RunTimeout: time.Minute,
		MaxQueue:   2 * sessions,
		Obs:        reg,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}

	genOne := func() {
		start := sched.TotalAccepted()
		for sched.TotalAccepted() == start {
			if err := sched.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 60; i++ {
		genOne()
	}
	if allocs := testing.AllocsPerRun(100, genOne); allocs != 0 {
		t.Errorf("batched serving steady state allocates %.1f times per accepted token, want 0", allocs)
	}
}
