// Package core implements PipeInfer (§IV): continuous asynchronous
// speculation with pipelined KV cache multibuffering and early inference
// cancellation. It holds the machine and its single-request driver.
//
// The machine is Chain: one request's accepted tokens, pending speculation
// chain and reactive cutoff, with the §IV algorithm as its methods — draft
// past the frontier, share the prefix into a fresh partition, verify a
// result, promote what the target confirmed, tell stale and invalidated
// runs from live ones. It does no I/O; whoever drives it owns the pipeline.
//
// Run is the driver the paper describes. The head node (rank 0) is
// dedicated to the draft model and sampling; the target model is pipelined
// across the remaining ranks. The head loop embodies §IV-B: whenever no
// completed run is waiting (an Iprobe on the result stream), it drafts
// another speculation micro-batch and injects it into the pipeline; when
// results are waiting, it verifies, samples, promotes accepted cache
// entries, cancels invalidated runs, and feeds freshly sampled tokens back
// as non-speculative runs. Multiple runs are therefore in flight at every
// moment, each in its own KV sequence partition. internal/serve drives one
// Chain per session over a shared pipeline.
package core

import (
	"fmt"
	"math"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// PipeInfer is the single-request driver: one Chain, the head that runs
// it, and the partitions its speculative runs live in.
type PipeInfer struct {
	Chain
	h      *engine.Head
	alloc  *kvcache.SeqAllocator
	prompt int // prompt length

	// Draft scratch, reused across attempts.
	ctx  []token.Token
	toks []token.Token
}

// Run executes PipeInfer generation on the head rank. The topology must
// dedicate the head: Stages must not include rank 0 (§IV-A: the draft
// model lives in its own pipeline).
func Run(h *engine.Head, prompt []token.Token) ([]token.Token, error) {
	if h.Topo.HeadIsStage() {
		return nil, fmt.Errorf("core: PipeInfer requires a dedicated head (topology stages include rank 0)")
	}
	p := &PipeInfer{
		Chain:  Chain{Accepted: snapshot(prompt), Cutoff: h.CFG.SpecCutoff, Canon: kvcache.Canonical},
		h:      h,
		alloc:  kvcache.NewSeqAllocator(h.CFG.MaxSeqs),
		prompt: len(prompt),
	}

	g0, err := engine.Prefill(h, prompt)
	if err != nil {
		return nil, err
	}
	p.Accepted = append(p.Accepted, g0)
	// Feed the first generated token to the target pipeline immediately
	// (§IV-A: "both pipelines are fed the first generated token").
	p.launchNonSpec()

	for p.generated() < h.CFG.MaxNew {
		if h.ResultWaiting() {
			if err := p.handleResult(); err != nil {
				return nil, err
			}
			continue
		}
		if p.trySpeculate() {
			continue
		}
		// Nothing speculable: wait for the pipeline (§IV-B.2 decay has
		// already lowered the cutoff for the next attempt).
		if h.Inflight() == 0 {
			// Defensive: the invariant "pipeline non-empty while tokens
			// remain" should make this unreachable.
			p.launchNonSpec()
			continue
		}
		if err := p.handleResult(); err != nil {
			return nil, err
		}
	}
	h.Stats.MarkDone(h.EP.Now())
	h.Stats.Generated.Store(int64(p.generated()))
	h.Shutdown()
	return p.Accepted[p.prompt:], nil
}

func (p *PipeInfer) generated() int { return len(p.Accepted) - p.prompt }

func snapshot(toks []token.Token) []token.Token {
	out := make([]token.Token, len(toks))
	copy(out, toks)
	return out
}

// launchNonSpec feeds the latest sampled token (whose KV entries exist
// nowhere yet) into the pipeline on the canonical sequence.
func (p *PipeInfer) launchNonSpec() {
	a := len(p.Accepted)
	msg := &engine.RunMsg{
		Kind: engine.KindNonSpec,
		Seq:  kvcache.Canonical,
		Tokens: []engine.TokenPlace{{
			Tok:  p.Accepted[a-1],
			Pos:  int32(a - 1),
			Seqs: kvcache.NewSeqSet(kvcache.Canonical),
		}},
	}
	p.h.Launch(msg, snapshot(p.Accepted[:a-1]), nil)
}

// trySpeculate drafts one micro-batch (§IV-B.1) extending the current
// speculation frontier and launches it as a speculative run in a fresh
// partition. It returns false when speculation is not possible or nothing
// clears the cutoff.
func (p *PipeInfer) trySpeculate() bool {
	if p.h.Inflight() >= p.h.CFG.MaxInflight || p.alloc.Available() == 0 {
		return false
	}
	p.toks = p.Draft(p.h.BK, &p.h.CFG, p.h.CFG.DisableContinuous && p.specInflight(), math.MaxInt, &p.ctx, p.toks[:0])
	if len(p.toks) == 0 {
		return false
	}
	seq, ok := p.alloc.Alloc()
	if !ok {
		return false
	}
	base := len(p.Accepted) + len(p.Pending)
	places := make([]engine.TokenPlace, len(p.toks))
	for i, t := range p.toks {
		places[i] = engine.TokenPlace{Tok: t, Pos: int32(base + i), Seqs: kvcache.NewSeqSet(seq)}
	}
	msg := &engine.RunMsg{Kind: engine.KindSpec, Seq: seq, Tokens: places, KVOps: p.ShareOps(nil, seq)}
	run := p.h.Launch(msg, p.Frontier(make([]token.Token, 0, base)), []kvcache.SeqID{seq})
	p.Launched(&p.h.CFG, p.toks, seq, run.Msg.ID)
	p.h.Stats.Proposed.Add(int64(len(p.toks)))
	return true
}

// specInflight reports a live speculative run in the pipeline (the Fig 8
// ablation's gate).
func (p *PipeInfer) specInflight() bool {
	for i := 0; i < p.h.Inflight(); i++ {
		if r := p.h.InflightAt(i); r.Msg.Kind == engine.KindSpec && !r.Cancelled {
			return true
		}
	}
	return false
}

// handleResult consumes the oldest completed run: verification, sampling,
// cache promotion, invalidation, and follow-up launches. A cancelled run,
// a superfluous one and one whose inputs were invalidated (with
// cancellation enabled such runs rarely get this far; under the
// no-cancellation ablation this is the main discard path) only give their
// partitions back.
func (p *PipeInfer) handleResult() error {
	run, res, ok, err := p.h.AwaitResult()
	if err != nil {
		return err
	}
	toks := run.Msg.Tokens
	live := ok && !run.Cancelled
	if live && p.Stale(toks) {
		p.h.Stats.Superfluous.Add(1)
		live = false
	}
	if !live || !p.Valid(toks) {
		p.h.SendKV(p.cleanupRun(run, nil))
		return nil
	}

	a := len(p.Accepted)
	ops, out, err := p.Verify(&p.h.CFG, toks, res, 0, math.MaxInt, nil)
	if err != nil {
		return err
	}
	p.h.Stats.Accepted.Add(int64(len(ops)))
	for range p.Accepted[a:] {
		p.h.Sampled(1)
	}
	if out == Rejected {
		p.dropPending()
	}
	// Promotions and cleanups must be issued before any dependent launch:
	// transaction order is what makes the new run see the promoted cells.
	p.h.SendKV(p.cleanupRun(run, ops))
	p.scanInflight()
	if out != Exhausted && p.generated() < p.h.CFG.MaxNew {
		p.launchNonSpec()
	}
	return nil
}

// dropPending discards the whole speculation chain and cancels the runs
// still in flight that carried it (§IV-D.2 back-propagation); the run
// whose result is being handled right now has already completed.
func (p *PipeInfer) dropPending() {
	var victims []*engine.Run
	for i := 0; i < p.h.Inflight(); i++ {
		if r := p.h.InflightAt(i); p.Carried(r.Msg.ID) {
			victims = append(victims, r)
		}
	}
	p.Drop()
	p.h.Cancel(victims)
}

// scanInflight is the per-sampling FIFO sweep of §IV-D.1: mark runs whose
// outputs are all already decided (superfluous) or whose inputs conflict
// (invalidated).
func (p *PipeInfer) scanInflight() {
	var victims []*engine.Run
	for i := 0; i < p.h.Inflight(); i++ {
		r := p.h.InflightAt(i)
		if !r.Cancelled && (p.Stale(r.Msg.Tokens) || !p.Valid(r.Msg.Tokens)) {
			victims = append(victims, r)
		}
	}
	if len(victims) > 0 {
		p.h.Cancel(victims)
	}
}

// cleanupRun returns the run's sequence partitions to the allocator and
// appends the SeqRm ops that clear them on every stage. Promoted cells
// keep their canonical membership; everything else is freed.
func (p *PipeInfer) cleanupRun(run *engine.Run, ops []kvcache.Op) []kvcache.Op {
	for _, s := range run.Seqs {
		ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqRm, Src: s, P0: 0, P1: 1 << 30})
		p.alloc.Free(s)
	}
	run.Seqs = nil
	return ops
}
