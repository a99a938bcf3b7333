package serve

// draftChain drafts sess's next chain onto specBuf (core.Chain.Draft),
// pass 3's one draft call, with the head told whose draft it evaluates
// (engine.Head.DraftFor). A draft the head cut short to let the session's
// waiting result through (engine.HeadBackend.Propose) drafts nothing, as
// a head that is not ready would, and is counted; the step after next
// resumes it.
func (s *Scheduler) draftChain(sess *session) {
	s.h.DraftFor(uint16(sess.slot))
	var yielded bool
	if s.specBuf, yielded = sess.Draft(s.h.BK, &s.h.CFG, sess.specRuns(), sess.prompt+sess.maxNew, &s.draft, s.specBuf); yielded {
		s.h.Stats.DraftYields.Add(1)
	}
}
