// Package core is PipeInfer's machine (§IV): continuous asynchronous
// speculation with pipelined KV cache multibuffering and early inference
// cancellation, as one type. Chain is one request's accepted tokens,
// pending speculation chain and reactive cutoff, with the §IV algorithm as
// its methods — draft past the frontier, share the prefix into a fresh
// partition, verify a result, promote what the target confirmed, tell
// stale and invalidated runs from live ones. It does no I/O. Round is
// the speculative baseline's unit beside it (§V-A): a tree drafted by
// the same drafter (spec.Grow), sent behind its anchor, verified and
// promoted once its run returns.
//
// internal/serve drives it, one Chain per session, from the head of a
// pipeline whose rank 0 is dedicated to the draft model and sampling
// (§IV-A). A single-request run — the paper's setting — is a one-session
// serve, so the figures measure the code that serves.
package core

import (
	"fmt"
	"slices"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
	"github.com/pipeinfer/pipeinfer/internal/spec"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// Pending is one speculated-but-unverified token past the accepted
// sequence. Its KV entries live in partition Seq, written by the run with
// ID Run (an ID, not a record: the serving layer recycles run records).
type Pending struct {
	Tok token.Token
	Seq kvcache.SeqID
	Run uint32
}

// Chain is one request's speculation state and the §IV algorithm over it:
// the accepted tokens, the pending chain drafted past them, and the
// reactive confidence cutoff (§IV-B.2). It is plain data and does no I/O:
// its driver, serve.Scheduler, owns the pipeline — launching, awaiting,
// cancelling, shipping the KV ops the methods hand back. Methods take
// caller-owned scratch and allocate nothing beyond growing it.
type Chain struct {
	Accepted []token.Token
	Pending  []Pending
	Cutoff   float32
	// Canon is the sequence accepted tokens' cache entries live in.
	Canon kvcache.SeqID
	// Round is the speculative baseline's tree in flight (nil otherwise).
	Round *Round
}

// Bounds of the reactive cutoff.
const (
	cutoffFloor = 0.02
	cutoffCeil  = 0.95
)

// Frontier appends the context the next draft token extends — accepted
// tokens, then the pending chain — to dst.
func (c *Chain) Frontier(dst []token.Token) []token.Token {
	dst = append(dst, c.Accepted...)
	for _, pt := range c.Pending {
		dst = append(dst, pt.Tok)
	}
	return dst
}

// depth is the draft gate: how many tokens the next speculative run may
// carry. Continuous speculation (§IV-B.1) drafts a micro-batch whenever
// asked; the Fig 8 ablation one large batch at a time — nothing pending
// and no speculative run of this chain in flight (the driver's word).
func (c *Chain) depth(cfg *engine.Config, specInflight bool) int {
	if !cfg.DisableContinuous {
		return cfg.MicroBatch
	}
	if len(c.Pending) > 0 || specInflight {
		return 0
	}
	return 4 * cfg.MicroBatch
}

// Scratch is the storage a caller lends the drafting methods and that
// they reuse from call to call: the context each expansion is built in,
// and the tree Draft grows its chain in.
type Scratch struct {
	Ctx  []token.Token
	Tree spec.Tree
}

// Draft appends one speculative run's worth of tokens past the frontier
// to out: the draft model's top choice, one at a time, while its
// confidence clears the cutoff — spec.Grow at width 1, the reactive
// cutoff its threshold. Nothing is drafted when the gate is shut, the
// frontier has reached limit tokens, the head cannot draft yet
// (HeadBackend.Ready: its draft is still being derived, and the session
// decodes without speculation meanwhile) or the head cut a proposal short
// to let a waiting result through (HeadBackend.Propose), which Draft
// reports as yielded; none of these touches the cutoff. A first
// candidate that falls short decays it, so the chain scales utilisation
// back up while it waits (§IV-B.2). Pending is untouched until Launched:
// a draft the scheduler does not launch is simply drafted again.
func (c *Chain) Draft(bk engine.HeadBackend, cfg *engine.Config, specInflight bool, limit int, sc *Scratch, out []token.Token) (_ []token.Token, yielded bool) {
	n := c.depth(cfg, specInflight)
	if n == 0 || len(c.Accepted)+len(c.Pending) >= limit || !bk.Ready() {
		return out, false
	}
	// n tokens of spare room: Grow builds each context in place.
	ctx := slices.Grow(c.Frontier(sc.Ctx[:0]), n)
	sc.Ctx = ctx[:0]
	if !spec.Grow(bk, &sc.Tree, ctx, int32(len(ctx)), spec.GrowParams{Cutoff: c.Cutoff, MaxNodes: n, Width: 1}) {
		return out, true
	}
	for _, nd := range sc.Tree.Nodes {
		out = append(out, nd.Token)
	}
	if sc.Tree.Len() == 0 {
		c.Cutoff = max(c.Cutoff-cfg.CutoffDecay, cutoffFloor)
	}
	return out, false
}

// ShareOps appends the prefix-sharing ops that make partition dst see the
// whole frontier (§IV-C.3): the canonical prefix, then every pending
// segment, grouped by owning partition. Pipelined transaction order puts
// the source entries at each stage before the run carrying these ops is
// evaluated there, though the runs writing them are still in flight.
func (c *Chain) ShareOps(ops []kvcache.Op, dst kvcache.SeqID) []kvcache.Op {
	a := len(c.Accepted)
	ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqCp, Src: c.Canon, Dst: dst, P0: 0, P1: int32(a)})
	for i := 0; i < len(c.Pending); {
		j := i + 1
		for j < len(c.Pending) && c.Pending[j].Seq == c.Pending[i].Seq {
			j++
		}
		ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqCp,
			Src: c.Pending[i].Seq, Dst: dst, P0: int32(a + i), P1: int32(a + j)})
		i = j
	}
	return ops
}

// Launched records a drafted segment as pending against the run carrying
// it in partition seq, and raises the bar for the next draft (§IV-B.2).
func (c *Chain) Launched(cfg *engine.Config, toks []token.Token, seq kvcache.SeqID, run uint32) {
	for _, t := range toks {
		c.Pending = append(c.Pending, Pending{Tok: t, Seq: seq, Run: run})
	}
	c.Cutoff = min(c.Cutoff+cfg.CutoffRecovery, cutoffCeil)
}

// Stale reports a superfluous row group (§IV-D.1): every position it
// predicts is already accepted.
func (c *Chain) Stale(toks []engine.TokenPlace) bool {
	maxPos := int32(-1)
	for _, tp := range toks {
		maxPos = max(maxPos, tp.Pos)
	}
	return int(maxPos)+1 < len(c.Accepted)
}

// Valid is §IV-D.1's token-sequence comparison: every input token of the
// row group agrees with the accepted sequence or the (possibly rewritten)
// pending chain at its position.
func (c *Chain) Valid(toks []engine.TokenPlace) bool {
	a := len(c.Accepted)
	for _, tp := range toks {
		pos := int(tp.Pos)
		switch {
		case pos < a:
			if c.Accepted[pos] != tp.Tok {
				return false
			}
		case pos-a < len(c.Pending):
			if c.Pending[pos-a].Tok != tp.Tok {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Outcome is how a verification ended.
type Outcome uint8

const (
	// Exhausted: every row read confirmed a draft token (or the limit was
	// reached); the runs carrying the rest of the chain are in flight.
	Exhausted Outcome = iota
	// Rejected: the target disagreed and its token is accepted. Pending is
	// left for the driver to cancel the runs that carry it, then Drop.
	Rejected
	// Bonus: the chain ran out before the results did; the target's next
	// token past all speculation is accepted (§II-A.2).
	Bonus
)

// Verify consumes a fresh, valid row group's results: res.Next(lo+i) is
// the target's choice after toks[i]. From the row predicting the first
// unaccepted position on, each agreeing draft token is accepted and its
// cache entry promoted to the canonical sequence — the multibuffering
// "buffer swap", one op appended to ops each — until the target
// disagrees, the chain runs out, or Accepted reaches limit tokens. Any
// promotion resets the cutoff to its base.
func (c *Chain) Verify(cfg *engine.Config, toks []engine.TokenPlace, res engine.Results, lo, limit int, ops []kvcache.Op) ([]kvcache.Op, Outcome, error) {
	a, base := len(c.Accepted), int(toks[0].Pos)
	if a-1 < base {
		return ops, Exhausted, fmt.Errorf("core: result gap: accepted end %d, run base %d", a, base)
	}
	out := Exhausted
	k := 0 // pending tokens promoted
	for i := a - 1 - base; i < len(toks) && len(c.Accepted) < limit && out == Exhausted; i++ {
		next := res.Next(lo + i)
		switch {
		case k == len(c.Pending):
			out = Bonus
		case c.Pending[k].Tok != next:
			out = Rejected
		default:
			pos := int32(len(c.Accepted))
			ops = append(ops, kvcache.Op{Kind: kvcache.OpSeqCp,
				Src: c.Pending[k].Seq, Dst: c.Canon, P0: pos, P1: pos + 1})
			k++
		}
		c.Accepted = append(c.Accepted, next)
	}
	if k > 0 {
		// Shifted down, not resliced: Launched appends into the same
		// storage for as long as the chain lives.
		c.Pending = c.Pending[:copy(c.Pending, c.Pending[k:])]
		c.Cutoff = cfg.SpecCutoff
	}
	return ops, out, nil
}

// Carried reports whether run carries a pending token: a rejection makes
// it worth cancelling (§IV-D.2).
func (c *Chain) Carried(run uint32) bool {
	for _, pt := range c.Pending {
		if pt.Run == run {
			return true
		}
	}
	return false
}

// Drop discards the pending chain and the round in flight; cancelling
// their runs is the driver's.
func (c *Chain) Drop() { c.Pending, c.Round = c.Pending[:0], nil }
