package spec

import (
	"testing"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/tensor"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

func TestTreeConstruction(t *testing.T) {
	tr := NewTree(10)
	r := tr.AddRoot(5, 0.9)
	c1 := tr.AddChild(r, 6, 0.8)
	c2 := tr.AddChild(r, 7, 0.1)
	g := tr.AddChild(c1, 8, 0.7)

	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Pos(r) != 10 || tr.Pos(c1) != 11 || tr.Pos(g) != 12 {
		t.Fatal("positions wrong")
	}
	leaves := tr.Leaves()
	if len(leaves) != 2 || leaves[0] != c2 || leaves[1] != g {
		t.Fatalf("leaves = %v", leaves)
	}
	if tr.Nodes[g].Parent != c1 || tr.Nodes[c1].Parent != r || tr.Nodes[g].Token != 8 {
		t.Fatalf("nodes = %+v", tr.Nodes)
	}
	if err := ValidateTree(tr); err != nil {
		t.Fatal(err)
	}
}

func TestLinearizeSeqSets(t *testing.T) {
	// Root with two branches: the root must carry both branch sequences,
	// branch nodes only their own.
	tr := NewTree(0)
	r := tr.AddRoot(1, 0.9)
	a := tr.AddChild(r, 2, 0.8)
	b := tr.AddChild(r, 3, 0.7)

	lin, err := tr.Linearize([]kvcache.SeqID{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(lin.Tokens) != 3 {
		t.Fatalf("batch size %d", len(lin.Tokens))
	}
	// Root carries both seqs.
	if !lin.Meta[r].Seqs.Has(4) || !lin.Meta[r].Seqs.Has(5) {
		t.Fatal("root missing a branch sequence")
	}
	// Branches are disjoint.
	if lin.Meta[a].Seqs.Has(5) || lin.Meta[b].Seqs.Has(4) {
		t.Fatal("branches share a sequence")
	}
	if lin.SeqOfLeaf[a] != 4 || lin.SeqOfLeaf[b] != 5 {
		t.Fatalf("leaf seq map wrong: %v", lin.SeqOfLeaf)
	}
}

func TestLinearizeSeqCountMismatch(t *testing.T) {
	tr := NewTree(0)
	tr.AddRoot(1, 0.9)
	if _, err := tr.Linearize([]kvcache.SeqID{1, 2}); err == nil {
		t.Fatal("expected leaf/seq count mismatch error")
	}
}

// TestLinearizeMutualExclusionProperty: flatten random trees into a KV
// cache and verify that nodes on different branches are never mutually
// visible, while ancestors are always visible to descendants.
func TestLinearizeMutualExclusionProperty(t *testing.T) {
	rng := tensor.NewRNG(7)
	for trial := 0; trial < 40; trial++ {
		tr := NewTree(0)
		tr.AddRoot(token.Token(rng.Intn(100)), 1)
		for tr.Len() < 2+rng.Intn(10) {
			parent := rng.Intn(tr.Len())
			tr.AddChild(parent, token.Token(rng.Intn(100)), 1)
		}
		if err := ValidateTree(tr); err != nil {
			t.Fatal(err)
		}
		leaves := tr.Leaves()
		seqs := make([]kvcache.SeqID, len(leaves))
		for i := range seqs {
			seqs[i] = kvcache.SeqID(i + 1)
		}
		lin, err := tr.Linearize(seqs)
		if err != nil {
			t.Fatal(err)
		}

		cache := kvcache.New(tr.Len())
		for i := range lin.Tokens {
			cache.Occupy(i, lin.Meta[i].Pos, lin.Meta[i].Seqs)
		}
		// ancestor test and sibling-branch test via visibility
		for i := range lin.Tokens {
			ni := lin.Order[i]
			vis := map[int]bool{}
			for _, c := range cache.VisibleCells(nil, lin.Meta[i]) {
				vis[c] = true
			}
			// All ancestors visible.
			for p := tr.Nodes[ni].Parent; p >= 0; p = tr.Nodes[p].Parent {
				if !vis[p] {
					t.Fatalf("trial %d: ancestor %d not visible to %d", trial, p, ni)
				}
			}
			// Non-ancestor, non-descendant nodes must be invisible.
			anc := map[int]bool{ni: true}
			for p := tr.Nodes[ni].Parent; p >= 0; p = tr.Nodes[p].Parent {
				anc[p] = true
			}
			for j := range lin.Tokens {
				nj := lin.Order[j]
				if anc[nj] {
					continue
				}
				// nj visible to ni implies nj is on ni's path — i.e. a
				// descendant (which has larger pos, so invisible) or a
				// separate branch (disjoint seqs). Either way vis must be
				// false unless nj is an ancestor.
				if vis[nj] && tr.Pos(nj) <= tr.Pos(ni) {
					t.Fatalf("trial %d: non-ancestor %d visible to %d", trial, nj, ni)
				}
			}
		}
	}
}

// scriptedProposer replays a fixed proposal table keyed by context length.
type scriptedProposer struct {
	toks  map[int][]token.Token
	probs map[int][]float32
	cut   map[int]int // context length -> proposals to cut short first
}

func (s *scriptedProposer) Propose(ctx []token.Token, width int) ([]token.Token, []float32, bool) {
	if s.cut[len(ctx)] > 0 {
		s.cut[len(ctx)]--
		return nil, nil, false
	}
	toks, ok := s.toks[len(ctx)]
	if !ok {
		return nil, nil, true
	}
	if len(toks) > width {
		toks = toks[:width]
	}
	probs := s.probs[len(ctx)]
	if len(probs) > len(toks) {
		probs = probs[:len(toks)]
	}
	return toks, probs, true
}

// grow is Grow into a fresh tree.
func grow(p Proposer, prefix []token.Token, basePos int32, params GrowParams) *Tree {
	t := NewTree(0)
	Grow(p, t, prefix, basePos, params)
	return t
}

func TestGrowRespectsCutoffAndCap(t *testing.T) {
	p := &scriptedProposer{
		toks: map[int][]token.Token{
			1: {10, 11},
			2: {20},
			3: {30},
		},
		probs: map[int][]float32{
			1: {0.9, 0.2},
			2: {0.8},
			3: {0.1}, // below cutoff
		},
	}
	tr := grow(p, []token.Token{1}, 5, GrowParams{Cutoff: 0.5, MaxNodes: 8, Width: 2})
	// Expected: root 10 (0.9), child 20 (0.8); 11 and 30 cut off.
	if tr.Len() != 2 {
		t.Fatalf("tree size %d, want 2: %+v", tr.Len(), tr.Nodes)
	}
	if tr.Nodes[0].Token != 10 || tr.Nodes[1].Token != 20 {
		t.Fatalf("tokens wrong: %+v", tr.Nodes)
	}
	if tr.BasePos != 5 {
		t.Fatal("BasePos lost")
	}

	// Cap enforcement.
	p2 := &scriptedProposer{
		toks:  map[int][]token.Token{1: {1, 2}, 2: {3, 4}, 3: {5, 6}},
		probs: map[int][]float32{1: {0.9, 0.9}, 2: {0.9, 0.9}, 3: {0.9, 0.9}},
	}
	tr2 := grow(p2, []token.Token{9}, 0, GrowParams{Cutoff: 0.5, MaxNodes: 3, Width: 2})
	if tr2.Len() != 3 {
		t.Fatalf("cap violated: %d nodes", tr2.Len())
	}
}

func TestGrowMaxDepth(t *testing.T) {
	p := &scriptedProposer{
		toks:  map[int][]token.Token{1: {1}, 2: {2}, 3: {3}, 4: {4}},
		probs: map[int][]float32{1: {0.9}, 2: {0.9}, 3: {0.9}, 4: {0.9}},
	}
	tr := grow(p, []token.Token{0}, 0, GrowParams{Cutoff: 0.1, MaxNodes: 10, Width: 1, MaxDepth: 2})
	if tr.Len() != 2 {
		t.Fatalf("MaxDepth violated: %d nodes", tr.Len())
	}
}

func TestVerifyGreedyFullAcceptance(t *testing.T) {
	tr := NewTree(0)
	r := tr.AddRoot(10, 0.9)
	c := tr.AddChild(r, 11, 0.9)

	preds := map[int]token.Token{r: 11, c: 12}
	res := VerifyGreedy(tr, 10, func(n int) token.Token { return preds[n] })
	if len(res.Accepted) != 2 || res.Accepted[0] != 10 || res.Accepted[1] != 11 {
		t.Fatalf("accepted = %v", res.Accepted)
	}
	if res.Bonus != 12 {
		t.Fatalf("bonus = %d, want 12", res.Bonus)
	}
}

func TestVerifyGreedyRejection(t *testing.T) {
	tr := NewTree(0)
	r := tr.AddRoot(10, 0.9)
	tr.AddChild(r, 11, 0.9)

	// Target wants 10 then 99: root accepted, child rejected, bonus = 99.
	preds := map[int]token.Token{r: 99}
	res := VerifyGreedy(tr, 10, func(n int) token.Token { return preds[n] })
	if len(res.Accepted) != 1 {
		t.Fatalf("accepted = %v", res.Accepted)
	}
	if res.Bonus != 99 {
		t.Fatalf("bonus = %d, want 99", res.Bonus)
	}
}

func TestVerifyGreedyRootMismatch(t *testing.T) {
	tr := NewTree(0)
	tr.AddRoot(10, 0.9)
	res := VerifyGreedy(tr, 55, func(int) token.Token { return 0 })
	if len(res.Accepted) != 0 {
		t.Fatal("nothing should be accepted")
	}
	if res.Bonus != 55 {
		t.Fatalf("bonus should be the corrective token: %d", res.Bonus)
	}
}

func TestVerifyGreedyPicksMatchingBranch(t *testing.T) {
	tr := NewTree(0)
	a := tr.AddRoot(10, 0.9)
	b := tr.AddRoot(20, 0.8)
	tr.AddChild(a, 11, 0.9)
	cb := tr.AddChild(b, 21, 0.9)

	preds := map[int]token.Token{b: 21, cb: 22}
	res := VerifyGreedy(tr, 20, func(n int) token.Token { return preds[n] })
	if len(res.Accepted) != 2 || res.Accepted[0] != 20 || res.Accepted[1] != 21 {
		t.Fatalf("accepted = %v", res.Accepted)
	}
}

func TestValidateTreeCatchesCorruption(t *testing.T) {
	tr := NewTree(0)
	r := tr.AddRoot(1, 1)
	tr.AddChild(r, 2, 1)
	tr.Nodes[1].Depth = 5
	if err := ValidateTree(tr); err == nil {
		t.Fatal("expected depth error")
	}
}

// TestGrowCutShort: a proposal cut short leaves the tree empty and Grow
// reports it; grown again, the same tree comes out as if nothing had
// happened, and a reused tree allocates nothing.
func TestGrowCutShort(t *testing.T) {
	p := &scriptedProposer{
		toks:  map[int][]token.Token{1: {1}, 2: {2}, 3: {3}},
		probs: map[int][]float32{1: {0.9}, 2: {0.9}, 3: {0.9}},
		cut:   map[int]int{2: 1},
	}
	params := GrowParams{Cutoff: 0.1, MaxNodes: 3, Width: 1}
	prefix := make([]token.Token, 1, 4)
	tr := NewTree(0)
	if Grow(p, tr, prefix, 1, params) || tr.Len() != 0 || tr.BasePos != 1 {
		t.Fatalf("cut-short grow: %d nodes at base %d, want none at 1", tr.Len(), tr.BasePos)
	}
	if !Grow(p, tr, prefix, 1, params) || tr.Len() != 3 || tr.Nodes[2].Token != 3 || tr.Nodes[1].Children[0] != 2 {
		t.Fatalf("regrown tree %+v", tr.Nodes)
	}
	if allocs := testing.AllocsPerRun(20, func() { Grow(p, tr, prefix, 1, params) }); allocs != 0 {
		t.Fatalf("growing a reused tree allocates %.1f times, want 0", allocs)
	}
}
