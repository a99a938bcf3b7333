package serve

// Prefix reuse (the package doc's "Prefix reuse" section): the
// scheduler's side of the shared-prefix trie.

import "github.com/pipeinfer/pipeinfer/internal/kvcache"

// probePrefix looks the session's accepted prefix up in the shared-prefix
// trie and, on a hit, maps the matched page chain read-only into the
// session's shard on the shadow and every stage (one OpMapShared
// transaction): positions [0, n) need no compute and no private cells,
// and prefill starts at the divergence point. The lookup is limited to
// len(accepted)-1 so at least one token is always left to compute — the
// run that samples the session's next token. Called at admission and at
// readmission (after the fill progress is reset, which it overwrites).
func (s *Scheduler) probePrefix(sess *session) {
	if s.prefix == nil {
		return
	}
	e, n := s.prefix.Lookup(sess.Accepted, len(sess.Accepted)-1)
	if e < 0 || n == 0 {
		return
	}
	s.prefix.Ref(e)
	sess.prefixEntry, sess.prefixLen = e, n
	s.sendOp(kvcache.Op{Kind: kvcache.OpMapShared, Src: sess.ns.Canonical(), Dst: kvcache.SeqID(e), P1: int32(n)})
	sess.fillSent, sess.fillDone = n, n
	sess.stats.PrefixHits++
	sess.stats.PrefixHitTokens += n
	s.h.Stats.PrefixHits.Add(1)
	s.h.Stats.PrefixHitTokens.Add(int64(n))
}

// unrefPrefix drops the session's reference on the trie entry it maps, if
// any. Its shard keeps the mapped pages; only the entry becomes evictable.
func (s *Scheduler) unrefPrefix(sess *session) {
	if sess.prefixEntry >= 0 {
		s.prefix.Unref(sess.prefixEntry)
		sess.prefixEntry = -1
	}
}

// publishPrefix runs at prefill completion: if the session's prompt has a
// page-aligned prefix deeper than anything the trie already covers, it is
// registered and the session's canonical cells over it become immutable
// refcounted shared pages on the shadow and every stage (one
// OpSharePrefix transaction). The donor keeps using the same cells; only
// ownership changes. Publication is skipped when the chain is not
// collectible whole-page (CanShare) — possible only in degenerate
// layouts — or when every entry id is taken and even the LRU eviction
// cannot free one.
func (s *Scheduler) publishPrefix(sess *session) {
	if s.prefix == nil {
		return
	}
	ps := s.prefix.PageSize()
	l := sess.prompt / ps * ps
	if l == 0 || l <= sess.prefixLen {
		return
	}
	if _, n := s.prefix.Lookup(sess.Accepted[:sess.prompt], l); n >= l {
		return // an entry at least this deep is already published
	}
	if !s.kv.CanShare(sess.ns.Canonical(), int32(l)) {
		return
	}
	e, ok := s.prefix.Insert(sess.Accepted[:l])
	if !ok {
		if s.evictColdest() {
			e, ok = s.prefix.Insert(sess.Accepted[:l])
		}
		if !ok {
			return
		}
	}
	s.sendOp(kvcache.Op{Kind: kvcache.OpSharePrefix, Src: sess.ns.Canonical(), Dst: kvcache.SeqID(e), P1: int32(l)})
	s.observePrefixOcc()
}

// evictColdest evicts the least recently used unreferenced trie entry
// (active mappings are exempt) and drops the registry hold on its pages
// pipeline-wide: those still listed by a mapped shard free when their
// last shard departs, the rest at once. False when nothing is evictable.
func (s *Scheduler) evictColdest() bool {
	if s.prefix == nil {
		return false
	}
	e, ok := s.prefix.EvictLRU()
	if ok {
		s.sendOp(kvcache.Op{Kind: kvcache.OpUnrefPrefix, Dst: kvcache.SeqID(e)})
		s.observePrefixOcc()
	}
	return ok
}

// flushPrefix evicts every remaining trie entry at run-down. All sessions
// are done, so no entry is active and every shared page frees — the
// drained caches end at zero used cells, same as without prefix reuse.
func (s *Scheduler) flushPrefix() {
	for s.evictColdest() {
	}
}

// observePrefixOcc mirrors trie occupancy into the telemetry gauges.
func (s *Scheduler) observePrefixOcc() {
	if s.prefix == nil {
		return
	}
	s.obs.SetPrefixCache(s.prefix.Len(), s.prefix.Tokens())
}
