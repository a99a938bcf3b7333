// Package simbk is the simulated-cluster backend: pipeline stages charge
// the cost model against the virtual clock instead of computing tensors,
// and the last stage samples the deterministic oracle's target model over
// the tokens its KV cells hold, as the real backend's last stage computes
// logits over its cells. Its ranks serve through the same rank routine and
// stage as the real-compute backend's (backend.ServeRank, backend.Stage),
// on the virtual-clock spawn (backend.Simulate): simbk supplies only its
// source of tokens and time (the oracle and roofline charges), so the
// scheduling behaviour measured here is byte-for-byte the code the
// real-compute backend validates for correctness.
package simbk

import (
	"encoding/binary"
	"slices"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend"
	"github.com/pipeinfer/pipeinfer/internal/comm"
	"github.com/pipeinfer/pipeinfer/internal/cost"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/oracle"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Worker is a simulated stage's layers (backend.Layers): a contiguous
// layer shard whose tensor arithmetic is replaced by virtual time. Its
// backend.Stage keeps full KV cache metadata (paged slot allocation,
// sequence sets), so the multibuffering protocol is exercised and
// validated at paper scale. The last stage also records the token each
// occupied cell was written for — what a real cell's keys and values
// encode — and samples over the cells a row sees, so a row that sees the
// wrong cells answers the wrong token.
type Worker struct {
	ep     comm.Endpoint
	node   cost.NodeSpec
	ms     cost.ModelSpec
	layers int
	cells  int
	target *oracle.Oracle // the last stage's sampler; nil elsewhere
	toks   []token.Token  // last stage: the token each cell holds, by cell id
	ctx    []token.Token  // last stage: one group's visible tokens
	next   []token.Token  // last stage: each placed row's target choice
	out    []byte         // last stage: the result rows, one token id each
}

// NewWorker builds a simulated stage's layers over a cache of cells
// cells. target is the model the last stage samples; it is nil for every
// other stage.
func NewWorker(ep comm.Endpoint, node cost.NodeSpec, ms cost.ModelSpec, layers int, target *oracle.Oracle, cells int) *Worker {
	w := &Worker{ep: ep, node: node, ms: ms, layers: layers, cells: cells, target: target}
	if target != nil {
		w.toks = make([]token.Token, cells)
	}
	return w
}

// Eval charges the stage time for the placed rows, layer chunk by layer
// chunk, probing for cancellation between chunks (§IV-D.2's
// synchronization points). The last stage answers each result row with
// the target's choice over the row's visible cells (one 4-byte token id)
// and charges the wire for a logits row per result row.
func (w *Worker) Eval(run *engine.RunMsg, _ []byte, rows *backend.Rows, cancelled func() bool) ([]byte, int, bool) {
	if w.target != nil {
		for k, c := range rows.Cells {
			w.toks[c] = rows.Toks[k]
		}
	}
	total := cost.StageTime(w.node, w.ms, w.layers, len(rows.Live))
	chunk := total / time.Duration(w.layers)
	for l := 0; l < w.layers; l++ {
		w.ep.Elapse(chunk)
		if cancelled() {
			return nil, 0, false
		}
	}
	if w.target == nil {
		return nil, w.ms.ActivationBytes(len(rows.Live)), true
	}
	// A token id travels to the head for every result row, charged as a
	// logits row: ranged (chunked-prefill) runs leave intermediate chunk
	// rows out.
	w.out = w.sample(w.out[:0], rows)
	return w.out, len(w.out) * w.ms.VocabSize, true // a logits row per 4-byte id
}

// sample appends the target's next token for every result row, in row
// order, chosen from the tokens of the cells the row sees: its group's
// position-sorted visible list, cut at the row's own cell.
func (w *Worker) sample(out []byte, rows *backend.Rows) []byte {
	w.next = slices.Grow(w.next[:0], len(rows.Live))[:len(rows.Live)]
	for _, g := range rows.Groups {
		w.ctx = w.ctx[:0]
		for j, k := range g.Rows {
			if _, ok := slices.BinarySearch(rows.Result, k); !ok {
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
	for _, k := range rows.Result {
		out = binary.LittleEndian.AppendUint32(out, uint32(w.next[k]))
	}
	return out
}

// MemoryBytes reports the simulated resident footprint: the weight shard
// plus an f16 KV cache for the shard's layers.
func (w *Worker) MemoryBytes() int64 {
	shard := w.ms.LayerBytes() * float64(w.layers)
	kv := float64(w.cells) * float64(w.layers) * float64(w.ms.Dim) * 2 * 2
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
