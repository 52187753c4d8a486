package main

import (
	"math"
	"sort"
)

// tailCandidates are the tail quantiles a timing may report, highest
// first.
var tailCandidates = []float64{0.99, 0.98, 0.95, 0.90}

// tailBeyond is how many samples a tail quantile must leave beyond it.
// With fewer, the order statistic of these heavy-tailed latencies moved
// about 20% between identical runs (README.md, "Tail quantiles").
const tailBeyond = 30

// tailRule returns the highest tail quantile that leaves at least
// tailBeyond of n samples beyond it, or p90 when none does.
// Each workload fixes its step tail with this rule at the lowest step
// count of its baseline runs, so a run that draws a few samples more or
// fewer never switches quantile.
func tailRule(n int) float64 {
	for _, q := range tailCandidates {
		if float64(n)*(1-q) >= tailBeyond-1e-9 {
			return q
		}
	}
	return tailCandidates[len(tailCandidates)-1]
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the rule Python's statistics.quantiles calls
// "inclusive"). It does not modify xs; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

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
