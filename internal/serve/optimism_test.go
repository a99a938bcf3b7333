package serve

import (
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// launchTriple pins the scheduler at level l and reads off what its
// launches do there: whether speculation launches, how many sessions one
// decode run carries, and how many prompt tokens one prefill run carries.
// Four short prompts prefill at the bottom rung first, so every session
// is decoding when the level is set; a fifth, 40-token prompt then shows
// the chunk budget.
func launchTriple(t *testing.T, l optimism) (spec bool, width, chunk int) {
	t.Helper()
	prompt := func(n int) []token.Token {
		p := make([]token.Token, n)
		for i := range p {
			p[i] = scriptTok(i)
		}
		return p
	}
	reqs := []Request{{Prompt: prompt(4), MaxNew: 40}, {Prompt: prompt(4), MaxNew: 40},
		{Prompt: prompt(4), MaxNew: 40}, {Prompt: prompt(4), MaxNew: 40}}
	s, _, _ := scriptServe(t, Config{KV: testKV, Speculate: true, MaxSessions: 4, MaxBatch: 4, PrefillChunk: 32}, reqs)
	s.admit()
	if !s.tryLaunch() || s.handleResult() != nil {
		t.Fatal("the short prompts did not prefill in one run")
	}
	s.level = l
	for s.tryLaunch() {
		if w := engine.DistinctSessions(s.h.InflightAt(s.h.Inflight() - 1).Msg); width == 0 {
			width = w // the first launch: every session's decode row it takes
		}
	}
	spec = s.h.Stats.Proposed.Load() > 0

	long, _, _ := scriptServe(t, Config{KV: testKV, MaxSessions: 1, PrefillChunk: 32}, []Request{{Prompt: prompt(40), MaxNew: 4}})
	long.admit()
	long.level = l
	if !long.tryLaunch() {
		t.Fatal("the long prompt launched nothing")
	}
	return spec, width, long.h.InflightAt(0).Msg.Len()
}

// TestOptimismLadder is the one table over the optimism level: which
// signals put the scheduler on which rung, and what each rung leaves its
// launches (speculation, batch width, prefill-chunk budget — every rung
// gives up what the one below gives up).
func TestOptimismLadder(t *testing.T) {
	const wait = time.Second
	rungs := []struct {
		name            string
		sig             signals
		level, brownout optimism
		spec            bool
		width, chunk    int
	}{
		{"healthy", signals{queued: 3, bound: 8}, optFull, optFull, true, 4, 32},
		{"slack above two waits", signals{queued: 1, slack: 3 * wait, wait: wait, hasSlack: true}, optFull, optFull, true, 4, 32},
		{"queue at half its bound", signals{queued: 4, bound: 8}, optNoSpec, optNoSpec, false, 4, 32},
		{"slack under two waits", signals{queued: 1, slack: 3 * wait / 2, wait: wait, hasSlack: true}, optNoSpec, optNoSpec, false, 4, 32},
		{"queue at three quarters", signals{queued: 6, bound: 8}, optHalfChunk, optHalfChunk, false, 4, 16},
		{"slack under one wait", signals{queued: 7, bound: 16, slack: wait / 2, wait: wait, hasSlack: true}, optHalfChunk, optHalfChunk, false, 4, 16},
		{"two failures", signals{failStreak: breakerTripAfter - 1}, optFull, optFull, true, 4, 32},
		{"breaker open", signals{failStreak: breakerTripAfter}, optWidth1, optFull, false, 1, 16},
		{"breaker open under brown-out", signals{failStreak: breakerTripAfter + 4, queued: 4, bound: 8}, optWidth1, optNoSpec, false, 1, 16},
	}
	for _, r := range rungs {
		level, brownout := ladder(r.sig)
		if level != r.level || brownout != r.brownout {
			t.Errorf("%s: level %d, brown-out %d; want %d, %d", r.name, level, brownout, r.level, r.brownout)
			continue
		}
		if spec, width, chunk := launchTriple(t, level); spec != r.spec || width != r.width || chunk != r.chunk {
			t.Errorf("%s (level %d): speculate %v, width %d, chunk %d; want %v, %d, %d",
				r.name, level, spec, width, chunk, r.spec, r.width, r.chunk)
		}
	}
}

// TestBreakerTripAndReset drives the breaker's hysteresis through the
// scheduler's own updates: three consecutive failures trip it once, a
// success clears a shorter streak, and breakerResetAfter healthy
// completions in a row close it.
func TestBreakerTripAndReset(t *testing.T) {
	s, err := New(testHead(t), Config{KV: testKV, MaxBatch: 8, RunTimeout: time.Second}, req(4))
	if err != nil {
		t.Fatal(err)
	}
	step := func(note func()) optimism {
		note()
		s.observePressure()
		return s.level
	}
	// A near-trip streak is cleared by one success.
	for _, note := range []func(){s.noteFailure, s.noteFailure, s.noteSuccess, s.noteFailure, s.noteFailure} {
		if l := step(note); l != optFull {
			t.Fatalf("breaker tripped below the failure threshold: level %d", l)
		}
	}
	if w := s.effectiveWidth(); w != 4 {
		t.Fatalf("healthy breaker clamped width to %d, want 4", w)
	}
	if l := step(s.noteFailure); l != optWidth1 || s.h.Stats.BreakerTrips.Load() != 1 {
		t.Fatalf("3 consecutive failures: level %d, trips %d", l, s.h.Stats.BreakerTrips.Load())
	}
	if w := s.effectiveWidth(); w != 1 {
		t.Fatalf("open breaker width %d, want 1", w)
	}
	// Further failures don't double-count the trip.
	step(s.noteFailure)
	if s.h.Stats.BreakerTrips.Load() != 1 {
		t.Fatalf("re-counted trip: %d", s.h.Stats.BreakerTrips.Load())
	}
	// A sustained healthy streak closes it.
	for i := 0; i < breakerResetAfter-1; i++ {
		if l := step(s.noteSuccess); l != optWidth1 {
			t.Fatalf("breaker closed after only %d successes", i+1)
		}
	}
	if l := step(s.noteSuccess); l != optFull {
		t.Fatalf("breaker still open after the reset streak: level %d", l)
	}
	if w := s.effectiveWidth(); w != 4 {
		t.Fatalf("closed breaker width %d, want 4", w)
	}
}

// TestBrownoutLadder fills a live scheduler's queue through Submit and
// admission: speculation goes first, then half the prefill chunk, and a
// drain below half the bound steps the ladder back to healthy.
func TestBrownoutLadder(t *testing.T) {
	s, err := NewLive(testHead(t), Config{KV: testKV, Speculate: true, SeqsPerSession: 4, MaxSessions: 1, MaxQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.level != optFull {
		t.Fatalf("fresh scheduler at level %d, want healthy", s.level)
	}
	for i := 0; i < 4; i++ { // 2*4 >= 8
		s.Submit(req(1)[0])
	}
	if s.level != optNoSpec {
		t.Fatalf("at half bound: level %d, want %d", s.level, optNoSpec)
	}
	for i := 0; i < 2; i++ { // 4*6 >= 3*8
		s.Submit(req(1)[0])
	}
	if s.level != optHalfChunk {
		t.Fatalf("at three-quarter bound: level %d, want %d", s.level, optHalfChunk)
	}
	// Drain below half the bound: the ladder steps back to healthy.
	for s.queue.Len() > 3 {
		s.queue.Pop()
	}
	s.observePressure()
	if s.level != optFull {
		t.Fatalf("after drain: level %d, want healthy", s.level)
	}
}
