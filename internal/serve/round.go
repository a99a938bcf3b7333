package serve

import (
	"github.com/pipeinfer/pipeinfer/internal/batch"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/kvcache"
)

// launchRound is the speculative baseline's draft-then-await rule (Drive,
// engine.StrategySpeculative), tried ahead of tryLaunch's passes: a
// decoding session that has just sampled and has nothing in flight drafts
// a tree of at most min(TreeCap, free partitions) nodes and launches it as
// one speculative run — the anchor row, then the tree, each leaf in a
// partition of its own — held as the chain's Round until its result
// returns. False leaves the session to pass 1's decode row: an empty tree,
// or a launch the shadow cache refused.
func (s *Scheduler) launchRound() bool {
	n := len(s.slots)
	for i := 0; i < n; i++ {
		sess := s.slots[(s.rr+i)%n]
		if sess == nil || sess.state != stateDecode || !sess.wantNonSpec || sess.alloc == nil || s.inflight(sess) > 0 {
			continue
		}
		s.h.DraftFor(uint16(sess.slot))
		tree, yielded := sess.DraftRound(s.h.BK, &s.h.CFG, min(s.h.CFG.TreeCap, sess.alloc.Available()), &s.draft)
		if yielded {
			s.h.Stats.DraftYields.Add(1)
		}
		if tree.Len() == 0 {
			return false
		}
		seqs := make([]kvcache.SeqID, len(tree.Leaves()))
		for j := range seqs {
			seqs[j], _ = sess.alloc.Alloc() // no more leaves than nodes
		}
		round, rows, ops := sess.RoundRun(tree, seqs, nil, s.ops[:0])
		for _, tp := range rows {
			s.composer.Stage(batch.Row{Session: uint16(sess.slot), Tok: tp.Tok, Pos: tp.Pos, Seqs: tp.Seqs})
		}
		s.ops = ops[:0]
		if s.launchComposed(engine.KindSpec, seqs, ops) == nil {
			for _, id := range seqs {
				sess.alloc.Free(id)
			}
			return false
		}
		sess.Round, sess.wantNonSpec = round, false
		sess.stats.RunsLaunched++
		sess.stats.Proposed += tree.Len()
		s.h.Stats.Proposed.Add(int64(tree.Len()))
		s.rr = (sess.slot + 1) % n
		return true
	}
	return false
}

// onRoundRows consumes sess's tree round, the row group starting at lo:
// the chain verifies it and promotes the accepted path into txn, stopping
// at the session's token budget (core.Chain.VerifyRound); the session
// then drains or, having just sampled, drafts its next round.
func (s *Scheduler) onRoundRows(sess *session, res engine.Results, lo int, txn []kvcache.Op) []kvcache.Op {
	a := len(sess.Accepted)
	txn, n := sess.VerifyRound(res, lo, sess.prompt+sess.maxNew, txn)
	for _, tok := range sess.Accepted[a:] {
		s.noteAccept(sess, tok, false)
	}
	sess.stats.Accepted += n
	s.h.Stats.Accepted.Add(int64(n))
	if sess.generated() >= sess.maxNew {
		s.enterDrain(sess)
	} else {
		sess.wantNonSpec = true
	}
	return txn
}
