//go:build linux

package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending-sorted slice: the smallest value with at least p% of
// the sample at or below it. Nearest-rank never interpolates, so the
// reported value is always one that was observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond counts the samples strictly above the p-th percentile
// rank: the evidence behind a reported tail percentile.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// relSpread is (max-min)/median: the run-quality indicator over the
// per-segment throughputs.
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return ratio(slices.Max(xs)-slices.Min(xs), median(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4) — the
// one the acceptance driver applies — so -selfcheck and -compare judge
// spread exactly as the driver does. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based scale; the index is clamped
		// to the data and the weight taken after clamping, so the ends
		// extrapolate, as Python's do.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqrShare is the interquartile distance as a share of the median.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}
