// Package simbk is the simulated-cluster backend: pipeline workers charge
// the cost model against the virtual clock instead of computing tensors,
// and the last stage samples the deterministic oracle's target model over
// the tokens its KV cells hold, as the real backend's last stage computes
// logits over its cells. Its ranks serve through the same rank routine as
// the real-compute backend's (backend.ServeRank), on the virtual-clock
// spawn (backend.Simulate): simbk supplies only its source of tokens and
// time (the oracle, placement and roofline charges), so the scheduling
// behaviour measured here is byte-for-byte the code the real-compute
// backend validates for correctness.
package simbk

import (
	"encoding/binary"
	"fmt"
	"slices"
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
// The last stage also records the token each occupied cell was written
// for — what a real cell's keys and values encode — and samples over the
// cells a row sees, so a row that sees the wrong cells answers the wrong
// token.
type Worker struct {
	ep     comm.Endpoint
	node   cost.NodeSpec
	ms     cost.ModelSpec
	layers int
	target *oracle.Oracle // the last stage's sampler; nil elsewhere
	cache  *kvpage.Cache
	groups []kvpage.VisibleGroup // the surviving rows' visible lists, rebuilt per run
	meta   []kvcache.TokenMeta
	cells  []int
	live   []int         // surviving (unmasked) row indices
	toks   []token.Token // last stage: the token each cell holds, by cell id
	ctx    []token.Token // last stage: one group's visible tokens
	next   []token.Token // last stage: each surviving row's target choice
	out    []byte        // last stage: the result rows, one token id each
}

// NewWorker builds a simulated stage with a paged KV metadata cache
// sized by kv. target is the model the last stage samples; it is nil for
// every other stage.
func NewWorker(ep comm.Endpoint, node cost.NodeSpec, ms cost.ModelSpec, layers int, target *oracle.Oracle, kv kvpage.Config) *Worker {
	w := &Worker{
		ep: ep, node: node, ms: ms, layers: layers, target: target,
		cache: kvpage.New(kv),
	}
	if target != nil {
		w.toks = make([]token.Token, w.cache.Size())
	}
	return w
}

// Eval charges the stage time for the batch, layer chunk by layer chunk,
// probing for cancellation between chunks (§IV-D.2's synchronization
// points). KV metadata is updated exactly as the real backend would:
// rows of a batched run are placed per owning shard, and rows masked out
// by per-session cancellation are skipped entirely (no occupancy, no
// charged compute). The last stage answers each result row with the
// target's choice over the row's visible cells (one 4-byte token id) and
// charges the wire for a logits row per result row.
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
	if w.target != nil {
		for k, c := range cells {
			w.toks[c] = run.Tokens[live[k]].Tok
		}
	}
	w.checkVisibility(run, meta, live)
	total := cost.StageTime(w.node, w.ms, w.layers, nl)
	chunk := total / time.Duration(w.layers)
	for l := 0; l < w.layers; l++ {
		w.ep.Elapse(chunk)
		if cancelled() {
			return nil, 0, false
		}
	}
	if w.target != nil {
		// A token id travels to the head for every result row, charged as
		// a logits row: ranged (chunked-prefill) runs leave intermediate
		// chunk rows out.
		w.sample(run)
		out := w.out[:0]
		for k, i := range live {
			if run.ResultRow(i, run.DeadSessions) {
				out = binary.LittleEndian.AppendUint32(out, uint32(w.next[k]))
			}
		}
		w.out = out
		return out, len(out) * w.ms.VocabSize, true // a logits row per 4-byte id
	}
	return nil, w.ms.ActivationBytes(nl), true
}

// sample picks the target's next token for every surviving result row
// from the tokens of the cells the row sees: its group's position-sorted
// visible list, cut at the row's own cell (checkVisibility's groups).
func (w *Worker) sample(run *engine.RunMsg) {
	w.next = slices.Grow(w.next[:0], len(w.live))[:len(w.live)]
	for _, g := range w.groups {
		w.ctx = w.ctx[:0]
		for j, k := range g.Rows {
			if !run.ResultRow(w.live[k], run.DeadSessions) {
				continue
			}
			if len(w.ctx) == 0 {
				for _, c := range g.Cells {
					w.ctx = append(w.ctx, w.toks[c])
				}
			}
			w.next[k] = w.target.TargetNext(w.ctx[:g.Lens[j]])
		}
	}
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
// time and defers token choice to the oracle; results are the token ids
// the last stage picked.
type Head struct {
	ep    comm.Endpoint
	node  cost.NodeSpec
	draft cost.ModelSpec
	O     *oracle.Oracle
	res   engine.RowTokens // Results staging, reused across calls
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

// Attach does nothing: the simulated head needs nothing of the head
// driving it.
func (h *Head) Attach(*engine.Head) {}

// Settle does nothing: the simulated head runs nothing on its own.
func (h *Head) Settle() {}

// Results charges the sampling time and decodes the last stage's token
// ids (engine.RowTokens). The returned value is valid until the next
// Results call.
func (h *Head) Results(run *engine.Run, dead uint64, rows []byte) engine.Results {
	h.ep.Elapse(cost.SampleTime)
	return h.res.Fill(run.Msg, dead, rows, h.RowBytes(), decodeID)
}

// RowBytes is one token id: the last stage samples over its cells and
// sends the choice, while charging the wire for a logits row.
func (h *Head) RowBytes() int { return 4 }

// decodeID reads one result row: a little-endian token id.
func decodeID(row []byte) token.Token { return token.Token(binary.LittleEndian.Uint32(row)) }

// MemoryBytes reports the draft model footprint.
func (h *Head) MemoryBytes() int64 { return int64(h.draft.Bytes()) }
