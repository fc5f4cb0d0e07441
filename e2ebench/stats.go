package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample such that at least q·n samples are at or below
// it. It always returns one of the samples, so the result lies within
// [min, max] and never interpolates across a gap. xs is not modified;
// an empty slice yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 0.5 quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }
