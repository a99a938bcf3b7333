package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/engine"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary wrong: %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v, want %v", s.Std, want)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatal("empty summary")
	}
	if s := Summarize([]float64{7}); s.Std != 0 || s.Mean != 7 {
		t.Fatal("singleton summary")
	}
}

func TestSummaryString(t *testing.T) {
	if got := Summarize([]float64{2, 2}).String(); !strings.Contains(got, "2.000") {
		t.Fatalf("summary string %q", got)
	}
}

func mkStats(speedTok int, genTime time.Duration) engine.Stats {
	s := engine.Stats{
		Generated:   speedTok,
		PrefillDone: time.Second,
		FirstToken:  time.Second + 100*time.Millisecond,
		Done:        time.Second + genTime,
		Proposed:    10,
		Accepted:    8,
	}
	s.AcceptTimes = []time.Duration{s.FirstToken, s.Done}
	return s
}

func TestCollector(t *testing.T) {
	var c Collector
	c.Add(mkStats(10, time.Second), []int64{1 << 30, 3 << 30})
	c.Add(mkStats(20, time.Second), []int64{1 << 30, 3 << 30})
	agg := c.Agg()
	if agg.Speed.N != 2 {
		t.Fatalf("N = %d", agg.Speed.N)
	}
	if agg.Speed.Mean != 15 {
		t.Fatalf("speed mean %v", agg.Speed.Mean)
	}
	if agg.PerNodeGiB.Mean != 2 {
		t.Fatalf("per-node GiB %v", agg.PerNodeGiB.Mean)
	}
	if agg.Acceptance.Mean != 0.8 {
		t.Fatalf("acceptance %v", agg.Acceptance.Mean)
	}
	if got := agg.SpeedPerGiB(); math.Abs(got-7.5) > 1e-9 {
		t.Fatalf("speed per GiB %v", got)
	}
}

func TestSpeedPerGiBZeroMemory(t *testing.T) {
	var a Agg
	if a.SpeedPerGiB() != 0 {
		t.Fatal("zero memory should give zero efficiency")
	}
}

func TestDurationSummary(t *testing.T) {
	s := Summarize([]float64{0.5, 1.5})
	got := DurationSummary(s)
	if !strings.Contains(got, "1s") {
		t.Fatalf("duration summary %q", got)
	}
}

// TestCostEMA checks the adaptive width controller's cost model: fed
// exact T = a + b·n samples at varying row counts, the exponentially
// forgotten least-squares fit must recover the overhead, the per-row
// cost and their ratio; fed constant-width samples it must stay
// undetermined (no row-count variation separates a from b).
func TestCostEMA(t *testing.T) {
	var e CostEMA
	const (
		overhead = 5 * time.Millisecond
		perRow   = time.Millisecond
	)
	for i := 0; i < 60; i++ {
		n := 1 + i%8
		e.Observe(n, overhead+time.Duration(n)*perRow)
	}
	if e.Samples() != 60 {
		t.Fatalf("samples %d", e.Samples())
	}
	if got := e.Overhead(); got < 0.0045 || got > 0.0055 {
		t.Fatalf("overhead %v, want ~0.005", got)
	}
	if got := e.PerRow(); got < 0.0009 || got > 0.0011 {
		t.Fatalf("per-row %v, want ~0.001", got)
	}
	if got := e.Ratio(); got < 4.5 || got > 5.5 {
		t.Fatalf("ratio %v, want ~5", got)
	}
	// A shifted regime is tracked: after many cheaper samples the fit
	// forgets the old overhead.
	for i := 0; i < 400; i++ {
		n := 1 + i%8
		e.Observe(n, time.Millisecond+time.Duration(n)*perRow)
	}
	if got := e.Overhead(); got > 0.002 {
		t.Fatalf("overhead %v after regime change, want ~0.001", got)
	}
	// Constant width: undetermined, reported as zeros.
	var flat CostEMA
	for i := 0; i < 50; i++ {
		flat.Observe(4, 9*time.Millisecond)
	}
	if flat.Ratio() != 0 || flat.Overhead() != 0 || flat.PerRow() != 0 {
		t.Fatal("constant-width samples produced a determined fit")
	}
	// Garbage observations are ignored.
	flat.Observe(0, time.Second)
	flat.Observe(3, -time.Second)
	if flat.Samples() != 50 {
		t.Fatal("degenerate observations were counted")
	}
}
