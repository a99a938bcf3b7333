package main

import (
	"math"
	"sort"
)

// minRepSamples is the fewest samples a rep must hold for a percentile
// to be computed inside the rep; below it the samples of all reps are
// pooled first (solo_pipeinfer has one TTFT per rep).
const minRepSamples = 10

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics. xs is not modified. An empty
// sample yields NaN so a missing measurement cannot pass for a number.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// repPercentile is the suite's latency statistic: the p-quantile is
// taken inside every rep and the median of those per-rep values is
// reported, which moves 1-5 % between runs where a pooled tail
// percentile moves 6-12 %. When any rep holds fewer than minRepSamples
// samples the reps are pooled and one quantile is taken over the pool.
func repPercentile(reps [][]float64, p float64) float64 {
	pooled := false
	for _, r := range reps {
		if len(r) < minRepSamples {
			pooled = true
			break
		}
	}
	if pooled {
		var all []float64
		for _, r := range reps {
			all = append(all, r...)
		}
		return percentile(all, p)
	}
	per := make([]float64, len(reps))
	for i, r := range reps {
		per[i] = percentile(r, p)
	}
	return median(per)
}

// groupStat folds a per-rep statistic over reps that cycle through
// several request sets (rep i serves set i mod nSets): stat is applied
// to each set's reps and the per-set values are averaged. A set's value
// is a median across its own reps, so one descheduled rep cannot move
// it; averaging across sets keeps the result smooth in the workload
// seed, where a median over a multimodal mix of sets would jump. With
// one set this is stat over all reps.
func groupStat[T any](reps []T, nSets int, stat func([]T) float64) float64 {
	if nSets <= 1 {
		return stat(reps)
	}
	per := make([]float64, 0, nSets)
	for s := 0; s < nSets; s++ {
		var g []T
		for i := s; i < len(reps); i += nSets {
			g = append(g, reps[i])
		}
		if len(g) > 0 {
			per = append(per, stat(g))
		}
	}
	return mean(per)
}

// spread summarises how far repeated runs of one metric disagree: the
// full range and the interquartile range, each as a share of the median.
// quartiles follow Python's statistics.quantiles(values, n=4) (exclusive
// method), the rule the acceptance driver applies.
func spread(xs []float64) (rangeFrac, iqrFrac float64) {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k)*float64(len(s)+1)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > len(s)-2 {
			lo = len(s) - 2
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (s[len(s)-1] - s[0]) / math.Abs(med), (q(3) - q(1)) / math.Abs(med)
}
