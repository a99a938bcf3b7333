package engine

import (
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Places builds canonical-sequence token placements for consecutive
// positions starting at pos.
func Places(toks []token.Token, pos int32, seqs kvcache.SeqSet) []TokenPlace {
	out := make([]TokenPlace, len(toks))
	for i, t := range toks {
		out[i] = TokenPlace{Tok: t, Pos: pos + int32(i), Seqs: seqs}
	}
	return out
}

func snapshot(toks []token.Token) []token.Token {
	out := make([]token.Token, len(toks))
	copy(out, toks)
	return out
}

// Prefill pushes the prompt through the pipeline as a canonical run and
// returns the first sampled token. Per §V-A, metrics start after it.
func Prefill(h *Head, prompt []token.Token) (token.Token, error) {
	if len(prompt) == 0 {
		return 0, fmt.Errorf("engine: empty prompt")
	}
	msg := &RunMsg{Kind: KindPrefill, Seq: kvcache.Canonical,
		Tokens: Places(prompt, 0, kvcache.NewSeqSet(kvcache.Canonical))}
	h.Launch(msg, nil, nil)
	_, res, ok, err := h.AwaitResult()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("engine: prefill run was cancelled")
	}
	next := res.Next(len(prompt) - 1)
	h.Stats.SetPrefillDone(h.EP.Now())
	return next, nil
}

// RunIterative is the naive pipeline-parallel baseline: one single-token
// run in flight at a time, each traversing every stage before the next
// token can be sampled. It returns the generated tokens (the prompt
// excluded).
func RunIterative(h *Head, prompt []token.Token) ([]token.Token, error) {
	g0, err := Prefill(h, prompt)
	if err != nil {
		return nil, err
	}
	accepted := snapshot(prompt)
	accepted = append(accepted, g0)

	for len(accepted)-len(prompt) < h.CFG.MaxNew {
		last := accepted[len(accepted)-1]
		pos := int32(len(accepted) - 1)
		msg := &RunMsg{Kind: KindNonSpec, Seq: kvcache.Canonical,
			Tokens: []TokenPlace{{Tok: last, Pos: pos, Seqs: kvcache.NewSeqSet(kvcache.Canonical)}}}
		h.Launch(msg, [][]token.Token{snapshot(accepted[:len(accepted)-1])}, nil)
		_, res, ok, err := h.AwaitResult()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("engine: iterative run cancelled unexpectedly")
		}
		accepted = append(accepted, res.Next(0))
		h.Sampled(1)
	}
	h.Stats.MarkDone(h.EP.Now())
	h.Stats.Generated.Store(int64(len(accepted) - len(prompt)))
	h.Shutdown()
	return accepted[len(prompt):], nil
}
