package core

import (
	"slices"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/spec"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Round is one round of the speculative baseline, SpecInfer with a single
// draft model (§V-A): a tree drafted past the accepted tokens, sent
// behind its anchor as one run, and verified once that run returns —
// nothing else is in flight meanwhile, the serialisation PipeInfer
// removes. A chain holds its round where PipeInfer's holds Pending.
type Round struct {
	Tree *spec.Tree
	Lin  *spec.Linear // one partition per leaf
}

// DraftRound grows a round's tree, a new one the round will hold, with
// the one drafter, spec.Grow: cfg.TreeWidth candidates per expansion, at
// most maxNodes nodes, at the fixed cutoff cfg.SpecCutoff. Its roots sit
// past the anchor, the last accepted token, whose KV is not cached yet.
// An empty tree means nothing cleared the cutoff, the head cannot draft
// yet (HeadBackend.Ready) or it cut a proposal short, which DraftRound
// reports as yielded (HeadBackend.Propose).
func (c *Chain) DraftRound(bk engine.HeadBackend, cfg *engine.Config, maxNodes int, sc *Scratch) (_ *spec.Tree, yielded bool) {
	t := spec.NewTree(int32(len(c.Accepted)))
	if !bk.Ready() {
		return t, false
	}
	ctx := slices.Grow(append(sc.Ctx[:0], c.Accepted...), maxNodes)
	sc.Ctx = ctx[:0]
	return t, !spec.Grow(bk, t, ctx, int32(len(ctx)), spec.GrowParams{Cutoff: cfg.SpecCutoff, MaxNodes: maxNodes, Width: cfg.TreeWidth})
}

// RoundRun lays a drafted tree out as a run over seqs, one partition per
// leaf (spec.Linearize), appending to rows the anchor row — seen by the
// canonical sequence and every partition — then the linearised tree, and
// to ops the copies of the canonical prefix below the anchor into each
// partition (§IV-C). The driver holds the round in Round once it launches.
func (c *Chain) RoundRun(t *spec.Tree, seqs []kvcache.SeqID, rows []engine.TokenPlace, ops []kvcache.Op) (*Round, []engine.TokenPlace, []kvcache.Op) {
	lin, err := t.Linearize(seqs)
	if err != nil {
		panic("core: " + err.Error()) // the driver allocates one partition per leaf
	}
	a := len(c.Accepted)
	anchor := kvcache.NewSeqSet(c.Canon)
	for _, id := range seqs {
		anchor = anchor.Add(id)
		ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqCp, Src: c.Canon, Dst: id, P0: 0, P1: int32(a - 1)})
	}
	rows = append(rows, engine.TokenPlace{Tok: c.Accepted[a-1], Pos: int32(a - 1), Seqs: anchor})
	for i, tok := range lin.Tokens {
		rows = append(rows, engine.TokenPlace{Tok: tok, Pos: lin.Meta[i].Pos, Seqs: lin.Meta[i].Seqs})
	}
	return &Round{Tree: t, Lin: lin}, rows, ops
}

// VerifyRound consumes the round's result, whose rows start at lo with the
// anchor's: the greedy path through the tree is accepted
// (spec.VerifyGreedy), then the target's token past it, until Accepted
// holds limit tokens. The accepted draft tokens' cache entries are
// promoted to the canonical sequence from the partition of their deepest
// node's leaf, one op appended to ops. It reports how many draft tokens
// were accepted and clears Round.
func (c *Chain) VerifyRound(res engine.Results, lo, limit int, ops []kvcache.Op) ([]kvcache.Op, int) {
	r := c.Round
	c.Round = nil
	g := spec.VerifyGreedy(r.Tree, res.Next(lo), func(node int) token.Token { return res.Next(lo + 1 + node) })
	a := len(c.Accepted)
	n := min(len(g.Accepted), limit-a)
	if n > 0 {
		leaf := g.AcceptedNodes[n-1]
		for len(r.Tree.Nodes[leaf].Children) > 0 {
			leaf = r.Tree.Nodes[leaf].Children[0]
		}
		ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqCp,
			Src: r.Lin.SeqOfLeaf[leaf], Dst: c.Canon, P0: int32(a), P1: int32(a + n)})
	}
	c.Accepted = append(c.Accepted, g.Accepted[:n]...)
	if len(c.Accepted) < limit {
		c.Accepted = append(c.Accepted, g.Bonus)
	}
	return ops, n
}
