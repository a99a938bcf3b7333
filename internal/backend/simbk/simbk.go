// Package simbk is the simulated-cluster backend: pipeline workers charge
// the cost model against the virtual clock instead of computing tensors,
// and the head interprets results through the deterministic oracle model
// pair. Because the engines only interact with the backend through the
// engine.Worker / engine.HeadBackend interfaces, the scheduling behaviour
// being measured here is byte-for-byte the same code that the real-compute
// backend validates for correctness.
package simbk

import (
	"fmt"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/batch"
	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/oracle"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Worker simulates one pipeline stage holding a contiguous layer shard.
// It maintains full KV cache *metadata* (paged slot allocation, sequence
// sets) so the multibuffering protocol is exercised and validated at
// paper scale; only the tensor arithmetic is replaced by virtual time.
type Worker struct {
	ep     comm.Endpoint
	node   cost.NodeSpec
	ms     cost.ModelSpec
	layers int
	isLast bool
	cache  *kvpage.Cache
	mask   kvcache.MaskBits // reusable visibility bitset, rebuilt per run
	meta   []kvcache.TokenMeta
	cells  []int
	// Batched-run staging: surviving row indices, frame tags and the
	// encoded multi-session result frame.
	live     []int
	rowTags  []uint16
	sessTags []uint16
	enc      []byte
}

// NewWorker builds a simulated stage with a paged KV metadata cache
// sized by kv.
func NewWorker(ep comm.Endpoint, node cost.NodeSpec, ms cost.ModelSpec, layers int, isLast bool, kv kvpage.Config) *Worker {
	return &Worker{
		ep: ep, node: node, ms: ms, layers: layers, isLast: isLast,
		cache: kvpage.New(kv),
	}
}

// Eval charges the stage time for the batch, layer chunk by layer chunk,
// probing for cancellation between chunks (§IV-D.2's synchronization
// points). KV metadata is updated exactly as the real backend would:
// rows of a batched run are placed per owning shard, and rows masked out
// by per-session cancellation are skipped entirely (no occupancy, no
// charged compute). The last stage of a batched run returns the
// multi-session result frame tagging every surviving row.
func (w *Worker) Eval(run *engine.RunMsg, _ []byte, cancelled func() bool) ([]byte, int, bool) {
	live := w.live[:0]
	for i := 0; i < run.Len(); i++ {
		if !run.RowDead(i) {
			live = append(live, i)
		}
	}
	w.live = live
	nl := len(live)
	if nl == 0 {
		return nil, 0, false
	}
	if cap(w.meta) < nl {
		w.meta = make([]kvcache.TokenMeta, nl)
	}
	meta := w.meta[:nl]
	for k, i := range live {
		meta[k] = kvcache.TokenMeta{Pos: run.Tokens[i].Pos, Seqs: run.Tokens[i].Seqs}
	}
	cells, err := w.cache.PlaceRowsInto(w.cells[:0], meta)
	if err != nil {
		panic(fmt.Sprintf("simbk: stage cache exhausted: %v", err))
	}
	w.cells = cells[:0]
	w.checkVisibility(run, meta, live)
	total := cost.StageTime(w.node, w.ms, w.layers, nl)
	chunk := total / time.Duration(w.layers)
	for l := 0; l < w.layers; l++ {
		w.ep.Elapse(chunk)
		if cancelled() {
			return nil, 0, false
		}
	}
	if w.isLast {
		// Result payload: logits for every surviving *sampling* batch
		// token travel to the head. Batched runs additionally carry the
		// frame header naming each surviving row, so the head's demux
		// never has to guess which rows a stage masked out; ranged
		// (chunked-prefill) runs leave intermediate chunk rows out of
		// both the frame and the charged logits wire entirely.
		if !run.Batched() {
			return nil, nl * w.ms.VocabSize * 4, true
		}
		rt, st := w.rowTags[:0], w.sessTags[:0]
		for _, i := range live {
			if !run.SamplingRow(i) {
				continue
			}
			rt = append(rt, uint16(i))
			st = append(st, run.RowSessions[i])
		}
		w.rowTags, w.sessTags = rt, st
		w.enc = batch.AppendResultHeader(w.enc[:0], run.Len(), rt, st)
		return w.enc, len(rt)*w.ms.VocabSize*4 + len(w.enc), true
	}
	return nil, w.ms.ActivationBytes(nl), true
}

// checkVisibility rebuilds the surviving rows' attention mask from cache
// metadata (the reusable-bitset BuildMaskInto — no per-run allocation)
// and asserts the multibuffering visibility invariant: the token at
// session-local position p must see exactly p+1 cells — its full shared
// prefix plus its own entry, each position once. Prefix-sharing ops,
// promotions, eviction, page recycling and cross-session batching all
// preserve it; a violation here is metadata corruption that the real
// backend would surface as a parity mismatch.
func (w *Worker) checkVisibility(run *engine.RunMsg, meta []kvcache.TokenMeta, live []int) {
	w.cache.BuildMaskInto(&w.mask, meta)
	for k, i := range live {
		if got, want := w.mask.RowOnes(k), int(run.Tokens[i].Pos)+1; got != want {
			panic(fmt.Sprintf("simbk: run %d token %d at pos %d sees %d cells, want %d",
				run.ID, i, run.Tokens[i].Pos, got, want))
		}
	}
}

// ApplyKV applies pipelined cache operations to the stage metadata.
func (w *Worker) ApplyKV(ops []kvcache.Op) { w.cache.ApplyAll(ops) }

// Cache exposes the metadata cache for invariant checks in tests.
func (w *Worker) Cache() *kvpage.Cache { return w.cache }

// MemoryBytes reports the simulated resident footprint: the weight shard
// plus an f16 KV cache for the shard's layers.
func (w *Worker) MemoryBytes() int64 {
	shard := w.ms.LayerBytes() * float64(w.layers)
	kv := float64(w.cache.Size()) * float64(w.layers) * float64(w.ms.Dim) * 2 * 2
	return int64(shard + kv)
}

// Head is the simulated head backend: drafting charges draft-model step
// time and defers token choice to the oracle; results are interpreted by
// replaying the oracle's target stream over the run's context.
type Head struct {
	ep    comm.Endpoint
	node  cost.NodeSpec
	draft cost.ModelSpec
	O     *oracle.Oracle
}

// NewHead builds the simulated head backend.
func NewHead(ep comm.Endpoint, node cost.NodeSpec, draft cost.ModelSpec, o *oracle.Oracle) *Head {
	return &Head{ep: ep, node: node, draft: draft, O: o}
}

// Propose charges one draft forward pass and returns the oracle proposal.
func (h *Head) Propose(ctx []token.Token, width int) ([]token.Token, []float32) {
	h.ep.Elapse(cost.DraftStepTime(h.node, h.draft))
	return h.O.Propose(ctx, width)
}

// Results interprets a run's (virtual) logits. ctx holds the tokens at
// positions [0, BasePos); the per-index context is reconstructed from the
// run's token placements, which works for chains and trees alike.
func (h *Head) Results(run *engine.RunMsg, ctx []token.Token, _ []byte) engine.Results {
	h.ep.Elapse(cost.SampleTime)
	return &simResults{o: h.O, run: run, prefix: ctx}
}

// BatchResults interprets a multi-session batched run's result: the
// payload is the frame the last stage emitted (validated against the run
// — total row count and per-row session tags must agree), and ctxs[i] is
// row i's session context, which replaces the single shared prefix of
// Results. Row-path reconstruction stays per session automatically:
// disjoint namespaces mean a row's parent can only be an earlier row of
// the same session.
func (h *Head) BatchResults(run *engine.RunMsg, ctxs [][]token.Token, payload []byte) engine.Results {
	h.ep.Elapse(cost.SampleTime)
	total, rows, sessions, _, err := batch.DecodeResult(payload, nil, nil)
	if err != nil {
		panic(fmt.Sprintf("simbk: bad batched result frame: %v", err))
	}
	if total != run.Len() {
		panic(fmt.Sprintf("simbk: result frame for %d rows, run has %d", total, run.Len()))
	}
	for k, orig := range rows {
		if run.RowSessions[orig] != sessions[k] {
			panic(fmt.Sprintf("simbk: result frame row %d tagged session %d, run says %d",
				orig, sessions[k], run.RowSessions[orig]))
		}
	}
	return &simResults{o: h.O, run: run, ctxs: ctxs}
}

// MemoryBytes reports the draft model footprint.
func (h *Head) MemoryBytes() int64 { return int64(h.draft.Bytes()) }

type simResults struct {
	o   *oracle.Oracle
	run *engine.RunMsg
	// prefix is the shared context of a solo run; ctxs the per-row
	// contexts of a batched run (exactly one of the two is used).
	prefix []token.Token
	ctxs   [][]token.Token
}

// Next reconstructs the root-to-i path through the batch (parent = the
// unique earlier token one position up sharing a sequence) and asks the
// oracle for the target's next token.
func (r *simResults) Next(i int) token.Token {
	prefix := r.prefix
	if r.ctxs != nil {
		prefix = r.ctxs[i]
	}
	toks := r.run.Tokens
	var rev []token.Token
	cur := i
	for cur >= 0 {
		rev = append(rev, toks[cur].Tok)
		parent := -1
		for j := range toks {
			if toks[j].Pos == toks[cur].Pos-1 && toks[j].Seqs.Intersects(toks[cur].Seqs) {
				parent = j
				break
			}
		}
		cur = parent
	}
	ctx := make([]token.Token, 0, len(prefix)+len(rev))
	ctx = append(ctx, prefix...)
	for j := len(rev) - 1; j >= 0; j-- {
		ctx = append(ctx, rev[j])
	}
	return r.o.TargetNext(ctx)
}
