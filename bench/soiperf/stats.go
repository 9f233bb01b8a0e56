package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// median returns the 50th percentile of xs (any order).
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// tailSamples is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics §1): p95 needs 200 samples, p99 needs 1000.
const tailSamples = 10

// supported reports whether n samples leave at least tailSamples beyond the
// p-th percentile.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= tailSamples-1e-9 // 10000 * 0.1 % is 9.999… in floating point
}

// highestTail returns the highest of the candidate percentiles that n
// samples support, or 50 when none does.
func highestTail(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// maxOf returns the largest element (0 for an empty slice).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// minOf returns the smallest element (0 for an empty slice).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
