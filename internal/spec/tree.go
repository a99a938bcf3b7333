// Package spec implements speculation trees and token verification
// (§II-A). A tree of candidate continuations is produced by a draft model,
// linearised into a single batch whose attention mask keeps sibling
// branches mutually invisible, evaluated by the target model, and then
// verified token by token against the target's output distributions.
//
// Grow is the one drafter: the speculative baseline's tree and
// PipeInfer's chain — a width-1 tree (core.Chain.Draft) — both grow
// through it, so the strategies differ in schedule, not in how they draft.
//
// Verification is greedy (VerifyGreedy), as in every experiment in the
// paper: it guarantees output bit-identical to non-speculative greedy
// decoding. The SpecInfer stochastic verifier the paper adopts for
// sampling (§IV-E) is not implemented, since no path here samples.
package spec

import (
	"fmt"
	"slices"

	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Node is one speculated token in the tree.
type Node struct {
	Token    token.Token
	Prob     float32 // draft confidence for this token
	Parent   int     // index of parent node, or -1 for a root
	Children []int
	Depth    int // 0 for roots
}

// Tree is a tree of speculative continuations rooted at absolute position
// BasePos: every root token is a candidate for position BasePos, its
// children for BasePos+1, and so on.
//
// A tree is reusable: Reset empties it and keeps its storage, so a caller
// that grows one tree per draft allocates nothing once it has grown to
// the largest draft.
type Tree struct {
	BasePos int32
	Nodes   []Node

	queue []frontier // Grow's frontier, reused
}

// frontier is a node Grow may expand next.
type frontier struct {
	parent int     // node to expand (-1 = root expansion)
	cum    float32 // cumulative confidence along the path
	depth  int
}

// NewTree creates an empty tree whose roots sit at position basePos.
func NewTree(basePos int32) *Tree {
	return &Tree{BasePos: basePos}
}

// Reset empties t and roots it at basePos, keeping its storage.
func (t *Tree) Reset(basePos int32) {
	t.BasePos, t.Nodes = basePos, t.Nodes[:0]
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.Nodes) }

// AddRoot appends a root candidate and returns its index.
func (t *Tree) AddRoot(tok token.Token, prob float32) int {
	return t.add(Node{Token: tok, Prob: prob, Parent: -1, Depth: 0})
}

// AddChild appends a child of parent and returns its index.
func (t *Tree) AddChild(parent int, tok token.Token, prob float32) int {
	if parent < 0 || parent >= len(t.Nodes) {
		panic(fmt.Sprintf("spec: parent %d out of range", parent))
	}
	idx := t.add(Node{Token: tok, Prob: prob, Parent: parent, Depth: t.Nodes[parent].Depth + 1})
	t.Nodes[parent].Children = append(t.Nodes[parent].Children, idx)
	return idx
}

// add appends n, handing it the child list storage of the node a Reset
// left in that slot.
func (t *Tree) add(n Node) int {
	idx := len(t.Nodes)
	if idx < cap(t.Nodes) {
		n.Children = t.Nodes[:idx+1][idx].Children[:0]
	}
	t.Nodes = append(t.Nodes, n)
	return idx
}

// Pos returns the absolute position of node i.
func (t *Tree) Pos(i int) int32 { return t.BasePos + int32(t.Nodes[i].Depth) }

// Leaves returns the indices of all leaf nodes in insertion order.
func (t *Tree) Leaves() []int {
	var out []int
	for i, n := range t.Nodes {
		if len(n.Children) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Linear is a tree flattened into target-model batch order. Node order is
// insertion order, which is topological (parents precede children), so a
// pipelined evaluation writes ancestor KV entries before descendants read
// them.
type Linear struct {
	Order  []int // node index per batch slot
	Tokens []token.Token
	Meta   []kvcache.TokenMeta
	// SeqOfLeaf maps each leaf node index to its assigned sequence.
	SeqOfLeaf map[int]kvcache.SeqID
}

// Linearize flattens the tree, assigning each leaf one sequence id from
// seqs (len(seqs) must equal the leaf count). An interior node belongs to
// the union of the sequences of the leaves beneath it, which is what makes
// the kvcache visibility rule reproduce the paper's tree attention mask:
// tokens on different branches share no sequence and cannot see each
// other.
func (t *Tree) Linearize(seqs []kvcache.SeqID) (*Linear, error) {
	leaves := t.Leaves()
	if len(seqs) != len(leaves) {
		return nil, fmt.Errorf("spec: %d sequences for %d leaves", len(seqs), len(leaves))
	}
	// Propagate leaf sequence sets up to the roots.
	sets := make([]kvcache.SeqSet, len(t.Nodes))
	leafSeq := make(map[int]kvcache.SeqID, len(leaves))
	for li, leaf := range leaves {
		leafSeq[leaf] = seqs[li]
		for n := leaf; n >= 0; n = t.Nodes[n].Parent {
			sets[n] = sets[n].Add(seqs[li])
		}
	}
	lin := &Linear{
		Order:     make([]int, 0, len(t.Nodes)),
		Tokens:    make([]token.Token, 0, len(t.Nodes)),
		Meta:      make([]kvcache.TokenMeta, 0, len(t.Nodes)),
		SeqOfLeaf: leafSeq,
	}
	for i, n := range t.Nodes {
		lin.Order = append(lin.Order, i)
		lin.Tokens = append(lin.Tokens, n.Token)
		lin.Meta = append(lin.Meta, kvcache.TokenMeta{Pos: t.Pos(i), Seqs: sets[i]})
	}
	return lin, nil
}

// Proposer produces draft-model continuations. Implementations exist for
// the real tiny draft model and for the simulated oracle draft.
type Proposer interface {
	// Propose returns up to width candidate next tokens for the sequence
	// context ctx, with draft confidences in descending order. The slices
	// may be the proposer's own buffers, valid until its next Propose.
	//
	// ok false reports a cut-short draft: the proposer stopped its
	// evaluation to let more urgent work run (the real head yields
	// between layers to a waiting result) and returns no candidates. It
	// keeps what it evaluated, and a later Propose for the same context
	// resumes where it stopped; a proposer that never yields always
	// answers true.
	Propose(ctx []token.Token, width int) (toks []token.Token, probs []float32, ok bool)
}

// GrowParams bounds tree growth.
type GrowParams struct {
	Cutoff   float32 // stop expanding below this confidence (§II-A.1)
	MaxNodes int     // hard cap on tree size
	Width    int     // branching factor per expansion
	MaxDepth int     // maximum depth (0 = unlimited)
}

// Grow empties t, roots it at basePos and expands it from the given
// accepted prefix using a best-first policy: the frontier node with the
// highest cumulative draft confidence expands next, and expansion stops
// when every frontier candidate falls below Cutoff or the tree reaches
// MaxNodes. The tree may stay empty if even the first proposal is below
// the cutoff. Grow reports false when p cut a proposal short; t is then
// left empty, as if nothing had been drafted.
//
// Each expansion's context — prefix, then the path to the node it
// expands — is built in place past len(prefix), so a prefix with MaxNodes
// tokens of spare capacity is never copied; the tokens up to len(prefix)
// are never written.
func Grow(p Proposer, t *Tree, prefix []token.Token, basePos int32, params GrowParams) bool {
	t.Reset(basePos)
	if params.MaxNodes <= 0 {
		return true
	}
	ctx := prefix
	t.queue = append(t.queue[:0], frontier{parent: -1, cum: 1, depth: 0})
	for len(t.queue) > 0 && t.Len() < params.MaxNodes {
		// Pick the highest-cumulative-confidence frontier entry.
		best := 0
		for i := 1; i < len(t.queue); i++ {
			if t.queue[i].cum > t.queue[best].cum {
				best = i
			}
		}
		f := t.queue[best]
		t.queue = append(t.queue[:best], t.queue[best+1:]...)
		if params.MaxDepth > 0 && f.depth >= params.MaxDepth {
			continue
		}

		ctx = ctx[:len(prefix)]
		for n := f.parent; n >= 0; n = t.Nodes[n].Parent {
			ctx = append(ctx, t.Nodes[n].Token)
		}
		slices.Reverse(ctx[len(prefix):])
		toks, probs, ok := p.Propose(ctx, params.Width)
		if !ok {
			t.Reset(basePos)
			return false
		}
		for i, tok := range toks {
			if probs[i] < params.Cutoff {
				continue
			}
			var idx int
			if f.parent == -1 {
				idx = t.AddRoot(tok, probs[i])
			} else {
				idx = t.AddChild(f.parent, tok, probs[i])
			}
			t.queue = append(t.queue, frontier{parent: idx, cum: f.cum * probs[i], depth: f.depth + 1})
			if t.Len() >= params.MaxNodes {
				break
			}
		}
	}
	return true
}
