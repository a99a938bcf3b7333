package model

import (
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// rowBlock is how many batch rows go through a layer's phases together.
// Blocking bounds the forward buffers (a 256-row prefill chunk would
// otherwise hold 640 floats of scratch per row) and keeps a block's
// activations cache-resident between phases; it cannot change a bit of
// the result, because no kernel's output depends on the rows beside it.
const rowBlock = 32

// Scratch owns every buffer one evaluation context (a Runner, a pipeline
// stage worker) needs for forward passes, so that a steady-state decode
// step performs zero heap allocations. The forward buffers are
// row-batched matrices sized to the widest block seen (at most rowBlock
// rows; only the query projections span the whole batch) and reused
// across calls.
//
// A Scratch must not be shared between concurrent evaluations: each
// Runner and each stage worker owns its own.
type Scratch struct {
	// Per-layer forward buffers, one row per token of the current block.
	h    tensor.Mat // Dim: normed hidden state
	k, v tensor.Mat // KVDim: the block's K/V rows, staged for the store
	attn tensor.Mat // Dim: concatenated attention head outputs
	proj tensor.Mat // Dim: Wo / WDown projection
	gate tensor.Mat // FFNDim
	up   tensor.Mat // FFNDim

	q      tensor.Mat // batch.Len() x Dim query projections
	scores tensor.Vec // attention scores, grown by tensor.Attention

	// Batch assembly (cache placement + visibility).
	cells []int
	vis   [][]int
	batch Batch

	// Activation / logits staging for runner-style whole-model evaluation.
	x      tensor.Mat
	logits tensor.Mat
	meta   []kvcache.TokenMeta
}

// NewScratch builds a scratch for cfg, sized for single-token decode;
// batch-sized buffers grow on first use.
func NewScratch(cfg Config) *Scratch {
	s := &Scratch{}
	s.shape(cfg, 1)
	return s
}

// shape sizes the forward buffers for an n-row batch.
func (s *Scratch) shape(cfg Config, n int) {
	ensureMat(&s.q, n, cfg.Dim)
	n = min(n, rowBlock)
	ensureMat(&s.h, n, cfg.Dim)
	ensureMat(&s.k, n, cfg.KVDim())
	ensureMat(&s.v, n, cfg.KVDim())
	ensureMat(&s.attn, n, cfg.Dim)
	ensureMat(&s.proj, n, cfg.Dim)
	ensureMat(&s.gate, n, cfg.FFNDim)
	ensureMat(&s.up, n, cfg.FFNDim)
}

// ensureMat shapes dst to rows x cols, reusing its backing storage when
// large enough.
func ensureMat(dst *tensor.Mat, rows, cols int) {
	if cap(dst.Data) < rows*cols {
		dst.Data = make([]float32, rows*cols)
	}
	dst.Rows, dst.Cols = rows, cols
	dst.Data = dst.Data[:rows*cols]
}

// BatchFor assembles the evaluation batch for toks/meta against the paged
// cache: it finds and occupies cache cells and computes per-token
// visibility, all into reused scratch storage. Rows are placed grouped by
// owning shard (kvpage.PlaceRowsInto), so a cross-session batched run —
// rows grouped per session, one namespace shard each — keeps every
// session's cells and visibility inside its own shard; a single-session
// batch behaves exactly as before. The returned batch (and its slices)
// alias the scratch and are valid until the next BatchFor call.
func (s *Scratch) BatchFor(cache *kvpage.Cache, toks []token.Token, meta []kvcache.TokenMeta) (*Batch, error) {
	n := len(toks)
	cells, err := cache.PlaceRowsInto(s.cells[:0], meta)
	if err != nil {
		return nil, err
	}
	s.cells = cells
	if cap(s.vis) < n {
		vis := make([][]int, n)
		copy(vis, s.vis)
		s.vis = vis
	}
	s.vis = s.vis[:n]
	for i := range toks {
		s.vis[i] = cache.VisibleCells(s.vis[i][:0], meta[i])
	}
	s.batch = Batch{Tokens: toks, Meta: meta, Cells: cells, Visible: s.vis}
	return &s.batch, nil
}
