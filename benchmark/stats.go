package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0 <= p <= 100) of vals by linear
// interpolation between closest ranks — the same rule on the round timings
// (a handful of float64) and the open-loop latency samples (~1M int64 ns).
// vals is sorted in place. An empty input yields 0.
func percentile[T int64 | float64](vals []T, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	rank := math.Min(math.Max(p, 0), 100) / 100 * float64(len(vals)-1)
	lo := int(rank)
	if lo+1 >= len(vals) {
		return float64(vals[len(vals)-1])
	}
	return float64(vals[lo]) + (rank-float64(lo))*float64(vals[lo+1]-vals[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// quartiles returns the 25th, 50th and 75th percentiles.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	return percentile(vals, 25), percentile(vals, 50), percentile(vals, 75)
}
