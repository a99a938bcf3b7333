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
	groups []kvpage.VisibleGroup // the surviving rows' visible lists, rebuilt per run
	meta   []kvcache.TokenMeta
	cells  []int
	live   []int // surviving (unmasked) row indices
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
// charged compute). The last stage's rows are virtual: it returns no bytes
// and charges the wire for a logits row per result row.
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
		// Logits travel to the head for every result row: ranged
		// (chunked-prefill) runs leave intermediate chunk rows out.
		rows := 0
		for _, i := range live {
			if run.ResultRow(i, run.DeadSessions) {
				rows++
			}
		}
		return nil, rows * w.ms.VocabSize * 4, true
	}
	return nil, w.ms.ActivationBytes(nl), true
}

// checkVisibility lists the surviving rows' visible cells from cache
// metadata, grouped by sequence set exactly as the real backend's stages
// attend over them (kvpage.VisibleGroups, storage reused per run), and
// asserts the multibuffering visibility invariant: the token at
// session-local position p must see exactly p+1 cells — its full shared
// prefix plus its own entry, each position once. Prefix-sharing ops,
// promotions, eviction, page recycling and cross-session batching all
// preserve it; a violation here is metadata corruption that the real
// backend would surface as a parity mismatch.
func (w *Worker) checkVisibility(run *engine.RunMsg, meta []kvcache.TokenMeta, live []int) {
	w.groups = w.cache.VisibleGroups(w.groups, meta)
	for _, g := range w.groups {
		for j, k := range g.Rows {
			i := live[k]
			if got, want := g.Lens[j], int(run.Tokens[i].Pos)+1; got != want {
				panic(fmt.Sprintf("simbk: run %d token %d at pos %d sees %d cells, want %d",
					run.ID, i, run.Tokens[i].Pos, got, want))
			}
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
// The step is one atomic Elapse in virtual time: the simulated head never
// cuts a draft short.
func (h *Head) Propose(ctx []token.Token, width int) ([]token.Token, []float32, bool) {
	h.ep.Elapse(cost.DraftStepTime(h.node, h.draft))
	toks, probs := h.O.Propose(ctx, width)
	return toks, probs, true
}

// Ready is always true: the simulated draft exists from the start.
func (h *Head) Ready() bool { return true }

// Results interprets a run's (virtual) logits: row i's target choice is
// replayed from its context (run.Ctx) and the run's token placements.
// Row-path reconstruction stays per session automatically: disjoint
// namespaces mean a row's parent can only be an earlier row of the same
// session.
func (h *Head) Results(run *engine.Run, _ uint64, _ []byte) engine.Results {
	h.ep.Elapse(cost.SampleTime)
	return &simResults{o: h.O, run: run}
}

// RowBytes is zero: the simulated rows are virtual.
func (h *Head) RowBytes() int { return 0 }

// MemoryBytes reports the draft model footprint.
func (h *Head) MemoryBytes() int64 { return int64(h.draft.Bytes()) }

type simResults struct {
	o   *oracle.Oracle
	run *engine.Run
}

// Next reconstructs the root-to-i path through the batch (parent = the
// unique earlier token one position up sharing a sequence) and asks the
// oracle for the target's next token.
func (r *simResults) Next(i int) token.Token {
	prefix := r.run.Ctx(i)
	toks := r.run.Msg.Tokens
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
