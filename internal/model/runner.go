package model

import (
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/kvpage"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Runner couples a whole model with a KV cache and store for single-node
// evaluation: the single-node baseline engine, the real drafter, and the
// model unit tests all drive inference through it.
//
// Runners own a Scratch: logits returned by Eval/EvalSeq alias its reused
// buffers and are valid until the runner's next evaluation. Callers that
// need results across evaluations must copy them out. A steady-state
// single-token evaluation allocates nothing (see TestDecodeStepAllocs).
//
// A runner also holds at most one evaluation that can stop between layers
// and go on later (Start, Resume): the drafter's, which yields to the
// pipeline it feeds. While one is started and unfinished nothing else may
// run on the runner — no Eval, and no cache operation but on cells the
// caller knows are not the evaluation's.
type Runner struct {
	M     *Model
	Cache *kvpage.Cache
	Store *KVStore

	sc     *Scratch
	oneTok []token.Token // Greedy's single-token batch, reused

	// The started evaluation: its tokens (the batch in sc aliases them,
	// its activations are sc.x), the next layer it runs, and, during a
	// Resume, the caller's yield probe. afterLayer is bound once, so a
	// Resume builds no closure.
	started    bool
	next       int
	toks       []token.Token
	yield      func() bool
	afterLayer func(layer int) bool
	lastRow    [1]int
}

// NewRunner creates a runner with a single-shard paged cache of at least
// nCells cells (rounded up to whole pages; the KV store matches the
// rounded size so every cell indexes a tensor row).
func NewRunner(m *Model, nCells int) *Runner {
	cache := kvpage.NewCells(nCells)
	r := &Runner{
		M:      m,
		Cache:  cache,
		Store:  NewKVStore(m.Cfg, 0, m.Cfg.NLayers, cache.Size()),
		sc:     NewScratch(m.Cfg),
		oneTok: make([]token.Token, 1),
	}
	r.afterLayer = r.layerDone
	return r
}

// Eval runs the full model over the batch tokens and returns the logits
// (one row per token). Cache cells are occupied as a side effect. The
// returned matrix aliases the runner's scratch and is valid until the
// next evaluation.
func (r *Runner) Eval(toks []token.Token, meta []kvcache.TokenMeta) (tensor.Mat, error) {
	if len(toks) != len(meta) {
		return tensor.Mat{}, fmt.Errorf("model: %d tokens vs %d metadata entries", len(toks), len(meta))
	}
	if r.started {
		panic("model: Eval while an evaluation is suspended")
	}
	batch, err := r.sc.BatchFor(r.Cache, toks, meta)
	if err != nil {
		return tensor.Mat{}, err
	}
	x := r.M.EmbedBatchInto(&r.sc.x, toks)
	x, ok := r.M.ForwardLayersScratch(0, r.M.Cfg.NLayers, x, r.Store, batch, nil, r.sc)
	if !ok {
		return tensor.Mat{}, fmt.Errorf("model: evaluation aborted")
	}
	return r.M.LogitsInto(&r.sc.logits, x, r.sc), nil
}

// EvalSeq is a convenience wrapper evaluating toks at consecutive positions
// startPos.. in a single sequence.
func (r *Runner) EvalSeq(toks []token.Token, startPos int32, seq kvcache.SeqID) (tensor.Mat, error) {
	return r.Eval(toks, r.seqMeta(len(toks), startPos, seq))
}

// seqMeta fills the scratch metadata for n tokens at consecutive
// positions startPos.. in seq.
func (r *Runner) seqMeta(n int, startPos int32, seq kvcache.SeqID) []kvcache.TokenMeta {
	if cap(r.sc.meta) < n {
		r.sc.meta = make([]kvcache.TokenMeta, n)
	}
	meta := r.sc.meta[:n]
	seqs := kvcache.NewSeqSet(seq)
	for i := range meta {
		meta[i] = kvcache.TokenMeta{Pos: startPos + int32(i), Seqs: seqs}
	}
	return meta
}

// Start places toks at consecutive positions startPos.. in seq, as
// EvalSeq would, and embeds them; Resume runs the layers. The cells stay
// occupied whether or not the evaluation finishes: one that is abandoned
// (Drop) leaves them to the caller's SeqRm.
func (r *Runner) Start(toks []token.Token, startPos int32, seq kvcache.SeqID) error {
	if r.started {
		panic("model: Start while an evaluation is suspended")
	}
	r.toks = append(r.toks[:0], toks...)
	if _, err := r.sc.BatchFor(r.Cache, r.toks, r.seqMeta(len(toks), startPos, seq)); err != nil {
		return err
	}
	r.M.EmbedBatchInto(&r.sc.x, r.toks)
	r.started, r.next = true, 0
	return nil
}

// Resume runs the started evaluation's remaining layers in order. After
// every layer but the last it asks yield (nil never yields); true
// suspends the evaluation there, with its activations, batch and next
// layer kept for the next Resume, and Resume returns false. So each
// Resume runs at least one layer, and an evaluation finishes within
// NLayers Resumes whatever yield says. Once the last layer has run,
// Resume returns the logits of the batch's final token — bit for bit
// EvalSeq's last row, since the layers and every row's arithmetic are
// the same — aliasing the runner's scratch until its next evaluation.
func (r *Runner) Resume(yield func() bool) (tensor.Vec, bool) {
	if !r.started {
		panic("model: Resume with no evaluation started")
	}
	r.yield = yield
	x, done := r.M.ForwardLayersScratch(r.next, r.M.Cfg.NLayers, r.sc.x, r.Store, &r.sc.batch, r.afterLayer, r.sc)
	r.yield = nil
	if !done {
		return nil, false
	}
	r.started = false
	r.lastRow[0] = x.Rows - 1
	return r.M.LogitsRowsInto(&r.sc.logits, x, r.lastRow[:], r.sc).Row(0), true
}

// layerDone is the started evaluation's per-layer probe: it notes the
// next layer and suspends, unless the last layer has run, when yield
// says so.
func (r *Runner) layerDone(layer int) bool {
	r.next = layer + 1
	return r.next == r.M.Cfg.NLayers || r.yield == nil || !r.yield()
}

// Drop abandons the started evaluation, if any. Its cells stay occupied
// until the caller removes them (Cache.SeqRm over its positions).
func (r *Runner) Drop() { r.started = false }

// Greedy generates maxNew tokens after prompt with greedy sampling,
// returning only the generated tokens. It is the reference non-speculative
// decoder all other engines must match bit-for-bit under greedy sampling.
func (r *Runner) Greedy(prompt []token.Token, maxNew int) ([]token.Token, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("model: empty prompt")
	}
	logits, err := r.EvalSeq(prompt, 0, kvcache.Canonical)
	if err != nil {
		return nil, err
	}
	next := token.Token(tensor.ArgMax(logits.Row(logits.Rows - 1)))
	out := make([]token.Token, 0, maxNew)
	pos := int32(len(prompt))
	for len(out) < maxNew {
		out = append(out, next)
		r.oneTok[0] = next
		logits, err = r.EvalSeq(r.oneTok, pos, kvcache.Canonical)
		if err != nil {
			return nil, err
		}
		next = token.Token(tensor.ArgMax(logits.Row(0)))
		pos++
	}
	return out, nil
}
