package spec

import (
	"fmt"

	"github.com/pipeinfer/pipeinfer/internal/token"
)

// GreedyResult reports the outcome of greedy tree verification.
type GreedyResult struct {
	// Accepted are the speculated tokens confirmed, in order.
	Accepted []token.Token
	// AcceptedNodes are the tree node indices of the accepted tokens.
	AcceptedNodes []int
	// Bonus is the target-model token following the accepted prefix —
	// either the corrective token after a mismatch or the free token
	// predicted past a fully accepted path (§II-A.2: "constantly
	// productive").
	Bonus token.Token
}

// VerifyGreedy walks the tree against the target model's greedy choices.
// predAtBase is the target's token for position tree.BasePos (it comes
// from the previous run's final distribution), and pred(i) returns the
// target's greedy token from the distribution produced at node i (i.e.
// the prediction for position Pos(i)+1).
//
// With greedy sampling this reproduces non-speculative decoding exactly:
// every accepted token equals the token greedy decoding would have chosen,
// and Bonus is the next one.
func VerifyGreedy(t *Tree, predAtBase token.Token, pred func(node int) token.Token) GreedyResult {
	res := GreedyResult{Bonus: predAtBase}
	want := predAtBase
	candidates := rootIndices(t)
	for {
		matched := -1
		for _, c := range candidates {
			if t.Nodes[c].Token == want {
				matched = c
				break
			}
		}
		if matched == -1 {
			return res
		}
		res.Accepted = append(res.Accepted, want)
		res.AcceptedNodes = append(res.AcceptedNodes, matched)
		want = pred(matched)
		res.Bonus = want
		candidates = t.Nodes[matched].Children
	}
}

func rootIndices(t *Tree) []int {
	var roots []int
	for i, n := range t.Nodes {
		if n.Parent == -1 {
			roots = append(roots, i)
		}
	}
	return roots
}

// ValidateTree checks structural invariants used by property tests:
// parents precede children, depths are consistent, child lists match
// parent pointers.
func ValidateTree(t *Tree) error {
	for i, n := range t.Nodes {
		if n.Parent >= i {
			return fmt.Errorf("spec: node %d has parent %d >= self", i, n.Parent)
		}
		if n.Parent == -1 && n.Depth != 0 {
			return fmt.Errorf("spec: root %d has depth %d", i, n.Depth)
		}
		if n.Parent >= 0 && n.Depth != t.Nodes[n.Parent].Depth+1 {
			return fmt.Errorf("spec: node %d depth %d, parent depth %d", i, n.Depth, t.Nodes[n.Parent].Depth)
		}
		for _, c := range n.Children {
			if c <= i || c >= len(t.Nodes) {
				return fmt.Errorf("spec: node %d has invalid child %d", i, c)
			}
			if t.Nodes[c].Parent != i {
				return fmt.Errorf("spec: child %d does not point back to %d", c, i)
			}
		}
	}
	return nil
}
