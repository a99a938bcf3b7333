package engine

import (
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/spec"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// RunSpeculative is the pipeline-parallel speculative baseline — an
// implementation of SpecInfer with a single draft model, as the paper
// compares against (§V-A "Baselines"). The draft model grows a speculation
// tree; the whole tree plus the anchor token is batched through the target
// pipeline; tokens are verified greedily; repeat. Speculation and
// verification are strictly serialized, which is precisely the latency
// weakness PipeInfer removes.
func RunSpeculative(h *Head, prompt []token.Token) ([]token.Token, error) {
	g0, err := prefill(h, prompt)
	if err != nil {
		return nil, err
	}
	accepted := snapshot(prompt)
	accepted = append(accepted, g0)
	alloc := kvcache.NewSeqAllocator(h.CFG.MaxSeqs)

	for len(accepted)-len(prompt) < h.CFG.MaxNew {
		a := len(accepted)
		anchor := accepted[a-1] // sampled last round: KV not yet cached

		// Speculation phase (§II-A.1): grow a tree until the confidence
		// cutoff or the node cap.
		maxNodes := h.CFG.TreeCap
		if avail := alloc.Available(); maxNodes > avail {
			maxNodes = avail
		}
		tree := spec.Grow(h.BK, accepted, int32(a), spec.GrowParams{
			Cutoff:   h.CFG.SpecCutoff,
			MaxNodes: maxNodes,
			Width:    h.CFG.TreeWidth,
		})

		if tree.Len() == 0 {
			// Nothing confident to speculate: plain iterative step.
			msg := &RunMsg{Kind: KindNonSpec, Seq: kvcache.Canonical,
				Tokens: []TokenPlace{{Tok: anchor, Pos: int32(a - 1), Seqs: kvcache.NewSeqSet(kvcache.Canonical)}}}
			h.Launch(msg, [][]token.Token{snapshot(accepted[:a-1])}, nil)
			_, res, ok, err := h.AwaitResult()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("engine: speculative fallback run cancelled")
			}
			accepted = append(accepted, res.Next(0))
			h.Sampled(1)
			continue
		}

		// Verification phase (§II-A.2): linearize with one sequence per
		// leaf so the metadata-derived attention mask keeps branches
		// mutually exclusive.
		leaves := tree.Leaves()
		seqs := make([]kvcache.SeqID, len(leaves))
		anchorSeqs := kvcache.NewSeqSet(kvcache.Canonical)
		var ops []kvcache.Op
		for i := range leaves {
			id, ok := alloc.Alloc()
			if !ok {
				return nil, fmt.Errorf("engine: sequence allocator exhausted")
			}
			seqs[i] = id
			anchorSeqs = anchorSeqs.Add(id)
			// Share the canonical prefix with this branch (§IV-C).
			ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqCp,
				Src: kvcache.Canonical, Dst: id, P0: 0, P1: int32(a - 1)})
		}
		lin, err := tree.Linearize(seqs)
		if err != nil {
			return nil, err
		}

		places := make([]TokenPlace, 0, 1+len(lin.Tokens))
		places = append(places, TokenPlace{Tok: anchor, Pos: int32(a - 1), Seqs: anchorSeqs})
		for i, tok := range lin.Tokens {
			places = append(places, TokenPlace{Tok: tok, Pos: lin.Meta[i].Pos, Seqs: lin.Meta[i].Seqs})
		}
		msg := &RunMsg{Kind: KindSpec, Seq: seqs[0], Tokens: places, KVOps: ops}
		h.Launch(msg, [][]token.Token{snapshot(accepted[:a-1])}, seqs)
		h.Stats.Proposed.Add(int64(tree.Len()))

		_, res, ok, err := h.AwaitResult()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("engine: verification run cancelled")
		}

		g := spec.VerifyGreedy(tree, res.Next(0), func(node int) token.Token {
			return res.Next(1 + node)
		})
		h.Stats.Accepted.Add(int64(len(g.Accepted)))

		var post []kvcache.Op
		if n := len(g.AcceptedNodes); n > 0 {
			// Promote the accepted path to the canonical sequence using
			// the sequence of any leaf below the deepest accepted node.
			leaf := g.AcceptedNodes[n-1]
			for len(tree.Nodes[leaf].Children) > 0 {
				leaf = tree.Nodes[leaf].Children[0]
			}
			sigma := lin.SeqOfLeaf[leaf]
			post = append(post, kvcache.Op{Kind: kvcache.OpSeqCp,
				Src: sigma, Dst: kvcache.Canonical, P0: int32(a), P1: int32(a + n)})
		}
		for _, id := range seqs {
			post = append(post, kvcache.Op{Kind: kvcache.OpSeqRm,
				Src: id, P0: 0, P1: 1 << 30})
			alloc.Free(id)
		}
		h.SendKV(post)

		accepted = append(accepted, g.Accepted...)
		accepted = append(accepted, g.Bonus)
		h.Sampled(len(g.Accepted) + 1)
	}
	h.Stats.MarkDone(h.EP.Now())
	h.Stats.Generated.Store(int64(len(accepted) - len(prompt)))
	// Leave the stages as a served session does: drained to zero cells.
	h.SendKV([]kvcache.Op{{Kind: kvcache.OpSeqRm, Src: kvcache.Canonical, P0: 0, P1: 1 << 30}})
	h.Shutdown()
	return accepted[len(prompt):], nil
}

// prefill pushes the prompt through the pipeline as a canonical run and
// returns the first sampled token. Per §V-A, metrics start after it.
func prefill(h *Head, prompt []token.Token) (token.Token, error) {
	if len(prompt) == 0 {
		return 0, fmt.Errorf("engine: empty prompt")
	}
	canon := kvcache.NewSeqSet(kvcache.Canonical)
	msg := &RunMsg{Kind: KindPrefill, Seq: kvcache.Canonical, Tokens: make([]TokenPlace, len(prompt))}
	for i, t := range prompt {
		msg.Tokens[i] = TokenPlace{Tok: t, Pos: int32(i), Seqs: canon}
	}
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

func snapshot(toks []token.Token) []token.Token {
	out := make([]token.Token, len(toks))
	copy(out, toks)
	return out
}
