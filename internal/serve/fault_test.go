package serve

import (
	"testing"
	"time"
)

// TestDeadlineFloorAndCap pins the watchdog budget's bounds: with no
// fitted cost model the configured floor applies verbatim, and the cap —
// runTimeoutCap floors — clamps whatever the prediction would stretch it
// to, at launch (behind the pipeline's depth) and at re-arm (depth 1)
// alike.
func TestDeadlineFloorAndCap(t *testing.T) {
	const floor = 100 * time.Millisecond
	s, err := New(testHead(t), Config{KV: testKV, RunTimeout: floor}, req(2))
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
