// Package model implements a from-scratch decoder-only transformer
// (Llama-family architecture: RMSNorm, rotary embeddings, grouped-query
// attention, SwiGLU MLP) over the tensor and quant substrates.
//
// The models used by the real-compute backend are tiny (a few hundred
// thousand parameters) but architecturally faithful: they are built from
// the same decoder-layer structure the paper describes (§II), support
// evaluation over an arbitrary contiguous layer range so pipeline stages
// can own disjoint layer sets, and read/write a cell-indexed KV store
// gated by externally supplied visibility sets — exactly the contract
// Pipelined KV Cache Multibuffering needs.
//
// Draft models are derived from the target by perturbing every projection
// weight with Gaussian noise: the noise scale directly controls draft/target alignment
// (and therefore speculation acceptance rate), substituting for the
// paper's separately trained draft models.
package model

import (
	"fmt"
	"math"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/quant"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Config describes a transformer architecture.
type Config struct {
	VocabSize int
	Dim       int // model (embedding) dimension
	NLayers   int
	NHeads    int // query heads
	NKVHeads  int // key/value heads (GQA when < NHeads)
	FFNDim    int // hidden dimension of the SwiGLU MLP
	RopeBase  float64
	NormEps   float32
	Quant     quant.Type // storage format of the big weight matrices
}

// Validate checks structural constraints.
func (c Config) Validate() error {
	switch {
	case c.VocabSize < token.NumSpecial+256:
		return fmt.Errorf("model: vocab %d too small", c.VocabSize)
	case c.Dim <= 0 || c.NLayers <= 0 || c.FFNDim <= 0:
		return fmt.Errorf("model: non-positive dimensions in %+v", c)
	case c.NHeads <= 0 || c.Dim%c.NHeads != 0:
		return fmt.Errorf("model: Dim %d not divisible by NHeads %d", c.Dim, c.NHeads)
	case c.NKVHeads <= 0 || c.NHeads%c.NKVHeads != 0:
		return fmt.Errorf("model: NHeads %d not divisible by NKVHeads %d", c.NHeads, c.NKVHeads)
	case (c.Dim/c.NHeads)%2 != 0:
		return fmt.Errorf("model: head dim %d must be even for RoPE", c.Dim/c.NHeads)
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (c Config) HeadDim() int { return c.Dim / c.NHeads }

// KVDim returns the width of the cached K (or V) row per token.
func (c Config) KVDim() int { return c.NKVHeads * c.HeadDim() }

// TinyConfig returns the default small architecture used in tests and the
// real-compute examples.
func TinyConfig() Config {
	return Config{
		VocabSize: token.NumSpecial + 256 + 29, // 288: multiple of quant block
		Dim:       64,
		NLayers:   8,
		NHeads:    4,
		NKVHeads:  2,
		FFNDim:    160,
		RopeBase:  10000,
		NormEps:   1e-5,
		Quant:     quant.F32,
	}
}

// Layer holds one decoder layer's weights.
type Layer struct {
	AttnNorm tensor.Vec // Dim
	Wq       quant.Mat  // Dim x Dim
	Wk       quant.Mat  // KVDim x Dim
	Wv       quant.Mat  // KVDim x Dim
	Wo       quant.Mat  // Dim x Dim
	FFNNorm  tensor.Vec // Dim
	WGate    quant.Mat  // FFNDim x Dim
	WUp      quant.Mat  // FFNDim x Dim
	WDown    quant.Mat  // Dim x FFNDim
}

// Model is a decoder-only transformer, or the slice of one a pipeline
// stage holds (NewStage): Layers always has NLayers entries, and whatever
// the stage does not evaluate is left empty.
type Model struct {
	Cfg    Config
	Embed  tensor.Mat // VocabSize x Dim (kept dense: gathered by row)
	Layers []Layer
	Norm   tensor.Vec // final RMSNorm
	Output quant.Mat  // VocabSize x Dim

	seed uint64 // of the target weight stream; unset on a draft
}

// Bytes reports the weight footprint of what the model holds resident —
// its built layers, and the embedding and the output head each only if
// present — which is what the per-node memory accounting (§V-A metric 4)
// measures.
func (m *Model) Bytes() int64 {
	b := m.Embed.Bytes() + m.Output.Bytes() + int64(len(m.Norm))*4
	for l := range m.Layers {
		lay := &m.Layers[l]
		for _, w := range lay.mats() {
			b += w.Bytes()
		}
		b += int64(len(lay.AttnNorm)+len(lay.FFNNorm)) * 4
	}
	return b
}

// KVStore holds the K/V tensor data for a contiguous layer range of one
// pipeline stage, indexed by cache cell.
type KVStore struct {
	lo, hi int
	K, V   []tensor.Mat // one nCells x KVDim matrix per local layer
}

// NewKVStore allocates storage for layers [lo, hi) with nCells cells.
func NewKVStore(cfg Config, lo, hi, nCells int) *KVStore {
	s := &KVStore{lo: lo, hi: hi}
	n := hi - lo
	s.K = make([]tensor.Mat, n)
	s.V = make([]tensor.Mat, n)
	for i := 0; i < n; i++ {
		s.K[i] = tensor.NewMat(nCells, cfg.KVDim())
		s.V[i] = tensor.NewMat(nCells, cfg.KVDim())
	}
	return s
}

// Bytes reports the KV storage footprint.
func (s *KVStore) Bytes() int64 {
	var b int64
	for i := range s.K {
		b += s.K[i].Bytes() + s.V[i].Bytes()
	}
	return b
}

func (s *KVStore) layer(l int) int {
	if l < s.lo || l >= s.hi {
		panic(fmt.Sprintf("model: layer %d outside store range [%d,%d)", l, s.lo, s.hi))
	}
	return l - s.lo
}

// Batch bundles the per-token placement metadata for one evaluation:
// Meta[i] gives position and sequence membership, Cells[i] the cache cell
// the token's K/V rows are written to, and Groups the cells each token may
// attend to (computed by the caller from kvcache metadata; they include the
// cells of earlier tokens in the same batch). Every row belongs to exactly
// one group and attends over its prefix of the group's list: row
// g.Rows[j] sees g.Cells[:g.Lens[j]] (see kvpage.VisibleGroups).
type Batch struct {
	Tokens []token.Token
	Meta   []kvcache.TokenMeta
	Cells  []int
	Groups []kvpage.VisibleGroup
}

// Len returns the number of tokens in the batch.
func (b *Batch) Len() int { return len(b.Tokens) }

// Validate checks that the parallel slices agree and that the groups
// hold one list length per row and as many rows as the batch.
func (b *Batch) Validate() error {
	n := len(b.Tokens)
	rows := 0
	for _, g := range b.Groups {
		if len(g.Lens) != len(g.Rows) {
			return fmt.Errorf("model: batch group has %d rows but %d list lengths", len(g.Rows), len(g.Lens))
		}
		rows += len(g.Rows)
	}
	if len(b.Meta) != n || len(b.Cells) != n || rows != n {
		return fmt.Errorf("model: batch slices disagree: tokens=%d meta=%d cells=%d grouped rows=%d",
			n, len(b.Meta), len(b.Cells), rows)
	}
	return nil
}

// EmbedBatchInto gathers the batch tokens' embedding rows into dst,
// reusing its backing storage across calls (the zero-allocation decode
// path).
func (m *Model) EmbedBatchInto(dst *tensor.Mat, toks []token.Token) tensor.Mat {
	ensureMat(dst, len(toks), m.Cfg.Dim)
	for i, t := range toks {
		if int(t) >= m.Cfg.VocabSize || t < 0 {
			panic(fmt.Sprintf("model: token %d outside vocab %d", t, m.Cfg.VocabSize))
		}
		copy(dst.Row(i), m.Embed.Row(int(t)))
	}
	return *dst
}

// ForwardLayersScratch evaluates layers [lo, hi) over the batch, reading
// input activations x (batch.Len() rows, updated in place) and returning
// the output activations. K/V rows for each token are written into kv at
// the batch's cells. An optional perLayer hook runs after each layer (the
// cancellation probe point); returning false aborts the evaluation early
// and ForwardLayersScratch returns (zero matrix, false). Every buffer the
// pass needs (normed hidden state, query projections, attention panels
// and scores, MLP activations) lives in s and is reused across calls, so
// the steady-state decode path allocates nothing.
//
// Each layer runs as batched phases — norm, QKV projection, RoPE and K/V
// store per block of rowBlock rows; attention per group of rows sharing
// a visible list (tensor.AttentionGroup packs the list once per layer,
// whatever blocks its rows span); then Wo + residual, norm, gate/up,
// SiLUMul, down + residual per block — so every projection is one
// multi-row product. The kernels compute each output in one canonical
// order (see package tensor), so a row's activations, and the K/V rows it
// stores, are bit-identical whatever other rows share the batch or its
// group.
func (m *Model) ForwardLayersScratch(lo, hi int, x tensor.Mat, kv *KVStore, batch *Batch, perLayer func(layer int) bool, s *Scratch) (tensor.Mat, bool) {
	if err := batch.Validate(); err != nil {
		panic(err)
	}
	n := batch.Len()
	if x.Rows != n || x.Cols != m.Cfg.Dim {
		panic(fmt.Sprintf("model: activation shape %dx%d does not match batch %d x dim %d",
			x.Rows, x.Cols, n, m.Cfg.Dim))
	}
	cfg := m.Cfg
	headDim := cfg.HeadDim()
	scale := float32(1.0 / math.Sqrt(float64(headDim)))
	s.shape(cfg, n)
	if !s.rope.Is(headDim, cfg.RopeBase) {
		s.rope = tensor.RoPEFor(headDim, cfg.RopeBase)
	}

	for l := lo; l < hi; l++ {
		lay := &m.Layers[l]
		lk := kv.K[kv.layer(l)]
		lv := kv.V[kv.layer(l)]

		// Project q/k/v for every token, apply RoPE, store K/V. Every
		// row's K/V must reach the store before any row attends: a
		// token's visible cells include the batch's own earlier tokens.
		for b0 := 0; b0 < n; b0 += rowBlock {
			b1 := min(b0+rowBlock, n)
			h, q := s.h.RowSpan(0, b1-b0), s.q.RowSpan(b0, b1)
			k, v := s.k.RowSpan(0, b1-b0), s.v.RowSpan(0, b1-b0)
			for b := b0; b < b1; b++ {
				tensor.RMSNorm(h.Row(b-b0), x.Row(b), lay.AttnNorm, cfg.NormEps)
			}
			lay.Wq.MatMulTQ(q, h)
			lay.Wk.MatMulTQ(k, h)
			lay.Wv.MatMulTQ(v, h)
			for b := b0; b < b1; b++ {
				pos := int(batch.Meta[b].Pos)
				s.rope.Rotate(q.Row(b-b0), pos)
				s.rope.Rotate(k.Row(b-b0), pos)
				copy(lk.Row(batch.Cells[b]), k.Row(b-b0))
				copy(lv.Row(batch.Cells[b]), v.Row(b-b0))
			}
		}

		// Attention per group of rows over their shared visible list.
		for _, g := range batch.Groups {
			tensor.AttentionGroup(s.attn, s.q, g.Rows, g.Lens, lk, lv, headDim, g.Cells, scale, &s.panels)
		}

		// The output projection and MLP with residual connections.
		for b0 := 0; b0 < n; b0 += rowBlock {
			b1 := min(b0+rowBlock, n)
			xb := x.RowSpan(b0, b1)
			h, attn, proj := s.h.RowSpan(0, b1-b0), s.attn.RowSpan(b0, b1), s.proj.RowSpan(0, b1-b0)
			gate, up := s.gate.RowSpan(0, b1-b0), s.up.RowSpan(0, b1-b0)
			lay.Wo.MatMulTQ(proj, attn)
			tensor.Add(xb.Data, xb.Data, proj.Data)

			for b := b0; b < b1; b++ {
				tensor.RMSNorm(h.Row(b-b0), x.Row(b), lay.FFNNorm, cfg.NormEps)
			}
			lay.WGate.MatMulTQ(gate, h)
			lay.WUp.MatMulTQ(up, h)
			tensor.SiLUMul(gate.Data, gate.Data, up.Data)
			lay.WDown.MatMulTQ(proj, gate)
			tensor.Add(xb.Data, xb.Data, proj.Data)
		}

		if perLayer != nil && !perLayer(l) {
			return tensor.Mat{}, false
		}
	}
	return x, true
}

// LogitsInto applies the final norm and output head to activations x,
// writing one logit row per batch token into dst (backing storage reused
// across calls) with the norm staging buffer taken from s.
func (m *Model) LogitsInto(dst *tensor.Mat, x tensor.Mat, s *Scratch) tensor.Mat {
	ensureMat(dst, x.Rows, m.Cfg.VocabSize)
	m.logitsRows(*dst, x, nil, s)
	return *dst
}

// LogitsRowsInto computes logits for the selected activation rows only:
// dst row k is the logits of x.Row(sel[k]). Chunked prefill uses it to
// pay the vocab-sized output projection just for the rows whose logits
// the head will actually consume — an intermediate prompt chunk's rows
// write KV and forward activations but never sample.
func (m *Model) LogitsRowsInto(dst *tensor.Mat, x tensor.Mat, sel []int, s *Scratch) tensor.Mat {
	ensureMat(dst, len(sel), m.Cfg.VocabSize)
	m.logitsRows(*dst, x, sel, s)
	return *dst
}

// logitsRows writes the logits of x's rows (of rows sel, when non-nil)
// to dst, a block of rowBlock rows at a time.
func (m *Model) logitsRows(dst, x tensor.Mat, sel []int, s *Scratch) {
	ensureMat(&s.h, min(dst.Rows, rowBlock), m.Cfg.Dim)
	for b0 := 0; b0 < dst.Rows; b0 += rowBlock {
		b1 := min(b0+rowBlock, dst.Rows)
		h := s.h.RowSpan(0, b1-b0)
		for b := b0; b < b1; b++ {
			src := b
			if sel != nil {
				src = sel[b]
			}
			tensor.RMSNorm(h.Row(b-b0), x.Row(src), m.Norm, m.Cfg.NormEps)
		}
		m.Output.MatMulTQ(dst.RowSpan(b0, b1), h)
	}
}
