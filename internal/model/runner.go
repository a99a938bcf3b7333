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
type Runner struct {
	M     *Model
	Cache *kvpage.Cache
	Store *KVStore

	sc     *Scratch
	oneTok []token.Token // Greedy's single-token batch, reused
}

// NewRunner creates a runner with a single-shard paged cache of at least
// nCells cells (rounded up to whole pages; the KV store matches the
// rounded size so every cell indexes a tensor row).
func NewRunner(m *Model, nCells int) *Runner {
	cache := kvpage.NewCells(nCells)
	return &Runner{
		M:      m,
		Cache:  cache,
		Store:  NewKVStore(m.Cfg, 0, m.Cfg.NLayers, cache.Size()),
		sc:     NewScratch(m.Cfg),
		oneTok: make([]token.Token, 1),
	}
}

// PrepareBatch occupies cache cells for the given token metadata and
// computes per-token visibility. It must be called before evaluation; the
// returned batch feeds ForwardLayers. Unlike the internal scratch path it
// returns freshly allocated slices the caller may retain.
func (r *Runner) PrepareBatch(toks []token.Token, meta []kvcache.TokenMeta) (*Batch, error) {
	if len(toks) != len(meta) {
		return nil, fmt.Errorf("model: %d tokens vs %d metadata entries", len(toks), len(meta))
	}
	return new(Scratch).BatchFor(r.Cache, toks, meta)
}

// Eval runs the full model over the batch tokens and returns the logits
// (one row per token). Cache cells are occupied as a side effect. The
// returned matrix aliases the runner's scratch and is valid until the
// next evaluation.
func (r *Runner) Eval(toks []token.Token, meta []kvcache.TokenMeta) (tensor.Mat, error) {
	if len(toks) != len(meta) {
		return tensor.Mat{}, fmt.Errorf("model: %d tokens vs %d metadata entries", len(toks), len(meta))
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
	if cap(r.sc.meta) < len(toks) {
		r.sc.meta = make([]kvcache.TokenMeta, len(toks))
	}
	meta := r.sc.meta[:len(toks)]
	seqs := kvcache.NewSeqSet(seq)
	for i := range toks {
		meta[i] = kvcache.TokenMeta{Pos: startPos + int32(i), Seqs: seqs}
	}
	return r.Eval(toks, meta)
}

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

// Reset clears the cache so the runner can be reused for a fresh sequence.
func (r *Runner) Reset() { r.Cache.Clear() }
