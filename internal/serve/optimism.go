package serve

import (
	"time"

	"github.com/pipeinfer/pipeinfer/internal/trace"
)

// optimism is how much optional work the scheduler takes on: one ordered
// ladder that the failure breaker and overload brown-out both climb. Each
// rung gives up everything the rung below it gives up; mandatory work —
// decode rows, prefill progress — is never given up.
type optimism uint8

const (
	// optFull speculates at full width and prefill-chunk budget.
	optFull optimism = iota
	// optNoSpec drafts nothing, continuously or draft-then-await: under
	// overload a chain is compute taken from queued mandatory work, and
	// under repeated faults work the next failure throws away.
	optNoSpec
	// optHalfChunk also halves the per-run prefill share, so decode rows —
	// admitted sessions racing their deadlines — keep the capacity.
	// Admission slows; it does not stop.
	optHalfChunk
	// optWidth1, the open breaker, also runs one session's rows per run,
	// the least work the next failure can take with it.
	optWidth1
)

// Breaker thresholds: consecutive watchdog failures that trip it, and
// consecutive healthy completions that close it again.
const (
	breakerTripAfter  = 3
	breakerResetAfter = 16
)

// signals are what the ladder reads: the breaker's failure streak, queue
// occupancy against its bound (0: unbounded), and the tightest queued
// TTFT slack against the queue-wait EMA (hasSlack false when no queued
// request carries a TTFT deadline or no wait has been observed yet).
type signals struct {
	failStreak    int
	queued, bound int
	slack, wait   time.Duration
	hasSlack      bool
}

// ladder is the one rule, a pure function of the signals. It returns the
// level and, for the pipeinfer_brownout_level gauge, the rung the two
// overload signals reach on their own. Queue occupancy drops speculation
// at half the bound and halves the chunk budget at three quarters; a
// queued TTFT slack under twice the observed queue wait drops speculation,
// under one wait halves the budget too. An open breaker is the top rung.
func ladder(sig signals) (level, brownout optimism) {
	switch b, q := sig.bound, sig.queued; {
	case b > 0 && 4*q >= 3*b:
		brownout = optHalfChunk
	case b > 0 && 2*q >= b:
		brownout = optNoSpec
	}
	if sig.hasSlack {
		switch {
		case sig.slack < sig.wait:
			brownout = optHalfChunk
		case sig.slack < 2*sig.wait:
			brownout = max(brownout, optNoSpec)
		}
	}
	if sig.failStreak >= breakerTripAfter {
		return optWidth1, brownout
	}
	return brownout, brownout
}

// chunkBudget is one run's prefill token budget at level l:
// Config.PrefillChunk, halved from optHalfChunk up. Without chunking it is
// a bound no prompt reaches (a chunk is then the whole remaining range,
// and tryLaunch allows one per run), small enough that position + budget
// cannot overflow.
func (s *Scheduler) chunkBudget(l optimism) int {
	c := s.cfg.PrefillChunk
	if c == 0 {
		return 1 << 30
	}
	if l >= optHalfChunk {
		return (c + 1) / 2
	}
	return c
}

// noteFailure records one watchdog-failed run; the breakerTripAfter-th in
// a row trips the breaker, so a persistently faulty link degrades
// throughput instead of feeding an evict/readmit storm.
func (s *Scheduler) noteFailure() {
	s.okStreak = 0
	s.failStreak++
	if s.failStreak == breakerTripAfter {
		s.h.Stats.BreakerTrips.Add(1)
		s.h.Flight.Record(s.h.EP.Now(), trace.FlightTrip, 0, int32(s.failStreak))
		s.obs.SetTripped(true)
		s.obs.DumpFlight("breaker tripped: consecutive watchdog failures")
	}
}

// noteSuccess records one healthy completion. A closed breaker forgets
// the failure streak; an open one keeps it until breakerResetAfter
// completions in a row close the breaker.
func (s *Scheduler) noteSuccess() {
	if s.failStreak < breakerTripAfter {
		s.failStreak = 0
		return
	}
	s.okStreak++
	if s.okStreak >= breakerResetAfter {
		s.failStreak, s.okStreak = 0, 0
		s.obs.SetTripped(false)
	}
}
