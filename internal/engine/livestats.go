package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// LiveStats is the concurrently mutable form of Stats used on serving
// hot paths: every counter is an atomic.Int64 (which also guarantees
// the 64-bit alignment 32-bit platforms need — no manual field-ordering
// rules), so the telemetry layer can take a consistent-enough Snapshot
// or Delta mid-serve without stopping the scheduler. The few
// non-counter fields (phase timestamps, the acceptance count and last
// timestamp, and the single-request engines' acceptance log) sit behind
// a mutex taken only on acceptance events and snapshots.
//
// Snapshot consistency rule: counters are read one atomic load at a
// time, so a snapshot is not a single linearization point across
// counters — Accepted may be one event ahead of Proposed, say. Each
// individual counter is exact, monotone, and torn-read-free, which is
// the contract monitoring needs; end-of-run snapshots (taken after the
// scheduler stops) are exact across the board.
type LiveStats struct {
	Generated atomic.Int64

	Proposed      atomic.Int64
	Accepted      atomic.Int64
	RunsLaunched  atomic.Int64
	RunsCancelled atomic.Int64
	Superfluous   atomic.Int64

	SpecDrops    atomic.Int64
	Preemptions  atomic.Int64
	Readmissions atomic.Int64

	BatchedRuns atomic.Int64
	BatchedRows atomic.Int64
	RowCancels  atomic.Int64

	PrefillBatchedRuns atomic.Int64

	RunTimeouts  atomic.Int64
	Recoveries   atomic.Int64
	Reconnects   atomic.Int64
	BreakerTrips atomic.Int64

	PrefixHits      atomic.Int64
	PrefixHitTokens atomic.Int64

	Sheds          atomic.Int64
	Overloads      atomic.Int64
	DeadlineHits   atomic.Int64
	DeadlineMisses atomic.Int64

	mu          sync.Mutex
	prefillDone time.Duration
	firstToken  time.Duration
	done        time.Duration
	accepts     int           // acceptance events so far
	lastAccept  time.Duration // timestamp of the latest one
	acceptTimes []time.Duration
}

// Sampled records n acceptances at now and pins the first-token time on
// the first call. First, last and count — all Stats.ITL reads — are
// always kept, in O(1) and without allocating; with log set every
// timestamp is also appended to the acceptance log. Single-request
// engines log (one generation, bounded by its token budget); the serving
// aggregate does not, because a live-intake server would otherwise keep
// 8 bytes per token served for as long as it runs.
func (ls *LiveStats) Sampled(now time.Duration, n int, log bool) {
	if n <= 0 {
		return
	}
	ls.mu.Lock()
	ls.accepts += n
	ls.lastAccept = now
	for i := 0; log && i < n; i++ {
		ls.acceptTimes = append(ls.acceptTimes, now)
	}
	if ls.firstToken == 0 {
		ls.firstToken = now
	}
	ls.mu.Unlock()
}

// SetPrefillDone records when prompt processing finished.
func (ls *LiveStats) SetPrefillDone(at time.Duration) {
	ls.mu.Lock()
	ls.prefillDone = at
	ls.mu.Unlock()
}

// PrefillDoneOnce records at as the prefill-finish time only if none is
// set yet (the serving layer's "first session through prefill" rule)
// and reports whether it stored.
func (ls *LiveStats) PrefillDoneOnce(at time.Duration) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.prefillDone != 0 {
		return false
	}
	ls.prefillDone = at
	return true
}

// MarkDone records when generation finished.
func (ls *LiveStats) MarkDone(at time.Duration) {
	ls.mu.Lock()
	ls.done = at
	ls.mu.Unlock()
}

// Snapshot copies the live counters into a plain Stats value. Safe to
// call concurrently with scheduler mutation; see the type comment for
// the consistency contract. A single-request engine's acceptance log is
// copied, so snapshots are self-contained (and Snapshot of one therefore
// allocates — it belongs on scrape/shutdown paths, not per-token ones).
func (ls *LiveStats) Snapshot() Stats {
	ls.mu.Lock()
	s := Stats{
		PrefillDone: ls.prefillDone,
		FirstToken:  ls.firstToken,
		Done:        ls.done,
		AcceptCount: ls.accepts,
		LastAccept:  ls.lastAccept,
	}
	if len(ls.acceptTimes) > 0 {
		s.AcceptTimes = make([]time.Duration, len(ls.acceptTimes))
		copy(s.AcceptTimes, ls.acceptTimes)
	}
	ls.mu.Unlock()

	s.Generated = int(ls.Generated.Load())
	s.Proposed = int(ls.Proposed.Load())
	s.Accepted = int(ls.Accepted.Load())
	s.RunsLaunched = int(ls.RunsLaunched.Load())
	s.RunsCancelled = int(ls.RunsCancelled.Load())
	s.Superfluous = int(ls.Superfluous.Load())
	s.SpecDrops = int(ls.SpecDrops.Load())
	s.Preemptions = int(ls.Preemptions.Load())
	s.Readmissions = int(ls.Readmissions.Load())
	s.BatchedRuns = int(ls.BatchedRuns.Load())
	s.BatchedRows = int(ls.BatchedRows.Load())
	s.RowCancels = int(ls.RowCancels.Load())
	s.PrefillBatchedRuns = int(ls.PrefillBatchedRuns.Load())
	s.RunTimeouts = int(ls.RunTimeouts.Load())
	s.Recoveries = int(ls.Recoveries.Load())
	s.Reconnects = int(ls.Reconnects.Load())
	s.BreakerTrips = int(ls.BreakerTrips.Load())
	s.PrefixHits = int(ls.PrefixHits.Load())
	s.PrefixHitTokens = int(ls.PrefixHitTokens.Load())
	s.Sheds = int(ls.Sheds.Load())
	s.Overloads = int(ls.Overloads.Load())
	s.DeadlineHits = int(ls.DeadlineHits.Load())
	s.DeadlineMisses = int(ls.DeadlineMisses.Load())
	return s
}

// Delta returns the counter movement since prev (a prior Snapshot).
// Timestamps and the acceptance count carry the current values;
// AcceptTimes is omitted.
func (ls *LiveStats) Delta(prev Stats) Stats {
	cur := ls.Snapshot()
	cur.AcceptTimes = nil
	cur.Generated -= prev.Generated
	cur.Proposed -= prev.Proposed
	cur.Accepted -= prev.Accepted
	cur.RunsLaunched -= prev.RunsLaunched
	cur.RunsCancelled -= prev.RunsCancelled
	cur.Superfluous -= prev.Superfluous
	cur.SpecDrops -= prev.SpecDrops
	cur.Preemptions -= prev.Preemptions
	cur.Readmissions -= prev.Readmissions
	cur.BatchedRuns -= prev.BatchedRuns
	cur.BatchedRows -= prev.BatchedRows
	cur.RowCancels -= prev.RowCancels
	cur.PrefillBatchedRuns -= prev.PrefillBatchedRuns
	cur.RunTimeouts -= prev.RunTimeouts
	cur.Recoveries -= prev.Recoveries
	cur.Reconnects -= prev.Reconnects
	cur.BreakerTrips -= prev.BreakerTrips
	cur.PrefixHits -= prev.PrefixHits
	cur.PrefixHitTokens -= prev.PrefixHitTokens
	cur.Sheds -= prev.Sheds
	cur.Overloads -= prev.Overloads
	cur.DeadlineHits -= prev.DeadlineHits
	cur.DeadlineMisses -= prev.DeadlineMisses
	return cur
}
