// Package metrics aggregates the paper's evaluation measurements across
// repetitions (§V-A runs every experiment 10 times and averages).
package metrics

import (
	"fmt"
	"math"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/engine"
)

// Summary holds order statistics of a sample.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
}

// Summarize computes summary statistics of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String renders "mean ± std".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f", s.Mean, s.Std)
}

// Agg aggregates one experimental condition over repetitions.
type Agg struct {
	Speed      Summary // tokens/second
	TTFT       Summary // seconds
	ITL        Summary // seconds
	Acceptance Summary // fraction
	PerNodeGiB Summary // mean resident GiB per node
	Cancelled  Summary // cancelled runs per generation
}

// Collector accumulates repetition results for one condition.
type Collector struct {
	speed, ttft, itl, acc, mem, cancelled []float64
}

// Add records one generation's stats and per-node memory bytes.
func (c *Collector) Add(s engine.Stats, perNodeMem []int64) {
	c.speed = append(c.speed, s.Speed())
	c.ttft = append(c.ttft, s.TTFT().Seconds())
	c.itl = append(c.itl, s.ITL().Seconds())
	c.acc = append(c.acc, s.AcceptanceRate())
	c.cancelled = append(c.cancelled, float64(s.RunsCancelled))
	if len(perNodeMem) > 0 {
		var sum float64
		for _, m := range perNodeMem {
			sum += float64(m)
		}
		c.mem = append(c.mem, sum/float64(len(perNodeMem))/float64(1<<30))
	}
}

// Agg summarises the collected repetitions.
func (c *Collector) Agg() Agg {
	return Agg{
		Speed:      Summarize(c.speed),
		TTFT:       Summarize(c.ttft),
		ITL:        Summarize(c.itl),
		Acceptance: Summarize(c.acc),
		PerNodeGiB: Summarize(c.mem),
		Cancelled:  Summarize(c.cancelled),
	}
}

// SpeedPerGiB is Fig 7a's memory-efficiency metric: generation speed
// divided by mean per-node resident memory.
func (a Agg) SpeedPerGiB() float64 {
	if a.PerNodeGiB.Mean <= 0 {
		return 0
	}
	return a.Speed.Mean / a.PerNodeGiB.Mean
}

// CostEMA is an online, exponentially forgotten least-squares fit of the
// pipeline's per-run service time T(n) ≈ Overhead + PerRow·n, where n is
// the run's token-row count. The serving scheduler feeds it one
// observation per consumed result while the pipeline is busy (so the gap
// between consecutive results approximates one run's service time) and
// the adaptive batch-width controller reads the fitted overhead-to-row
// cost ratio: a large ratio means per-run overhead dominates and wide
// batches pay, a small one means rows dominate and width buys little.
// All state is five scalars, so Observe is allocation-free and O(1).
type CostEMA struct {
	// Decay is the per-observation forgetting factor in (0, 1); 0 picks
	// DefaultCostDecay. Smaller values track regime changes faster.
	Decay float64

	s1, sn, snn, st, snt float64
	n                    int
}

// DefaultCostDecay keeps roughly the last ~50 runs' weight in the fit.
const DefaultCostDecay = 0.98

// Observe folds one (rows, serviceTime) sample into the fit.
func (e *CostEMA) Observe(rows int, d time.Duration) {
	if rows <= 0 || d <= 0 {
		return
	}
	lambda := e.Decay
	if lambda <= 0 || lambda >= 1 {
		lambda = DefaultCostDecay
	}
	x, t := float64(rows), d.Seconds()
	e.s1 = lambda*e.s1 + 1
	e.sn = lambda*e.sn + x
	e.snn = lambda*e.snn + x*x
	e.st = lambda*e.st + t
	e.snt = lambda*e.snt + x*t
	e.n++
}

// Samples reports how many observations have been folded in.
func (e *CostEMA) Samples() int { return e.n }

// fit solves the 2x2 normal equations; ok is false until the samples
// show enough row-count variation to separate overhead from row cost.
func (e *CostEMA) fit() (a, b float64, ok bool) {
	det := e.s1*e.snn - e.sn*e.sn
	if e.n < 4 || det < 1e-12 {
		return 0, 0, false
	}
	a = (e.snn*e.st - e.sn*e.snt) / det
	b = (e.s1*e.snt - e.sn*e.st) / det
	return a, b, true
}

// Overhead returns the fitted fixed per-run cost in seconds (0 until the
// fit is determined).
func (e *CostEMA) Overhead() float64 {
	a, _, ok := e.fit()
	if !ok || a < 0 {
		return 0
	}
	return a
}

// PerRow returns the fitted marginal per-row cost in seconds (0 until
// the fit is determined).
func (e *CostEMA) PerRow() float64 {
	_, b, ok := e.fit()
	if !ok || b < 0 {
		return 0
	}
	return b
}

// Ratio returns Overhead/PerRow — how many rows of compute one run's
// fixed overhead is worth — or 0 while the fit is undetermined. The
// adaptive width controller widens batches in proportion to it.
func (e *CostEMA) Ratio() float64 {
	a, b, ok := e.fit()
	if !ok || a <= 0 || b <= 1e-12 {
		return 0
	}
	return a / b
}

// DurationSummary renders a seconds summary as a duration string.
func DurationSummary(s Summary) string {
	return fmt.Sprintf("%v ± %v",
		time.Duration(s.Mean*float64(time.Second)).Round(time.Millisecond),
		time.Duration(s.Std*float64(time.Second)).Round(time.Millisecond))
}
