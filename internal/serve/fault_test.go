package serve

import (
	"testing"
	"time"
)

// TestBreakerTripAndReset pins the graceful-degradation breaker's state
// machine: consecutive watchdog failures trip it (batch width clamps to
// 1, one trip counted), interleaved successes reset the failure streak,
// and a sustained healthy streak closes it again.
func TestBreakerTripAndReset(t *testing.T) {
	s, err := New(testHead(t), Config{MaxBatch: 8, RunTimeout: time.Second}, req(4))
	if err != nil {
		t.Fatal(err)
	}
	// A near-trip streak is cleared by one success.
	s.noteFailure()
	s.noteFailure()
	s.noteSuccess()
	s.noteFailure()
	s.noteFailure()
	if s.tripped {
		t.Fatal("breaker tripped below the failure threshold")
	}
	if w := s.effectiveWidth(); w != 4 {
		t.Fatalf("healthy breaker clamped width to %d, want 4", w)
	}
	s.noteFailure()
	if !s.tripped || s.h.Stats.BreakerTrips.Load() != 1 {
		t.Fatalf("3 consecutive failures: tripped=%v trips=%d", s.tripped, s.h.Stats.BreakerTrips.Load())
	}
	if w := s.effectiveWidth(); w != 1 {
		t.Fatalf("open breaker width %d, want 1", w)
	}
	// Further failures don't double-count the trip.
	s.noteFailure()
	if s.h.Stats.BreakerTrips.Load() != 1 {
		t.Fatalf("re-counted trip: %d", s.h.Stats.BreakerTrips.Load())
	}
	// A sustained healthy streak closes it.
	for i := 0; i < breakerResetAfter-1; i++ {
		s.noteSuccess()
		if !s.tripped {
			t.Fatalf("breaker closed after only %d successes", i+1)
		}
	}
	s.noteSuccess()
	if s.tripped {
		t.Fatal("breaker still open after the reset streak")
	}
	if w := s.effectiveWidth(); w != 4 {
		t.Fatalf("closed breaker width %d, want 4", w)
	}
}

// TestDeadlineFloorAndCap pins the watchdog budget's bounds: with no
// fitted cost model the configured floor applies verbatim, and the cap —
// runTimeoutCap floors — clamps whatever the prediction would stretch it
// to, at launch (behind the pipeline's depth) and at re-arm (depth 1)
// alike.
func TestDeadlineFloorAndCap(t *testing.T) {
	const floor = 100 * time.Millisecond
	s, err := New(testHead(t), Config{RunTimeout: floor}, req(2))
	if err != nil {
		t.Fatal(err)
	}
	if runTimeoutMult != 8 || runTimeoutCap != 64 {
		t.Fatalf("watchdog constants mult=%v cap=%v, want 8 and 64", runTimeoutMult, runTimeoutCap)
	}
	// No fit: the floor applies, whatever the depth.
	for _, depth := range []int{0, 1, 12} {
		if d := s.runBudget(4, depth); d != floor {
			t.Fatalf("unfitted budget at depth %d is %v, want the %v floor", depth, d, floor)
		}
	}
	// A fit of 1 s per run: 8 x 1 s x depth is past the floor at any
	// depth and past the cap from depth 1 on.
	for i := 0; i < 64; i++ {
		s.runCost.Observe(1+i%4, time.Second)
	}
	if oh, pr := s.runCost.Overhead(), s.runCost.PerRow(); oh <= 0 && pr <= 0 {
		t.Fatalf("cost model did not converge: overhead %v perRow %v", oh, pr)
	}
	for _, depth := range []int{1, 12} {
		if d := s.runBudget(4, depth); d != runTimeoutCap*floor {
			t.Fatalf("budget at depth %d is %v, want the %v cap", depth, d, runTimeoutCap*floor)
		}
	}
}
