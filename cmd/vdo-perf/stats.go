package main

import (
	"math"
	"sort"
)

type number interface{ ~int64 | ~float64 }

// sorted returns an ascending copy of xs.
func sorted[T number](xs []T) []T {
	out := append([]T(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// nearestRank is the q-quantile of ascending xs by the nearest-rank rule:
// the smallest value with at least q of the samples at or below it.
func nearestRank[T number](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is the middle of xs, averaging the two middle values of an even
// count.
func median[T number](xs []T) T {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads read the same in both. Fewer than two values have
// no spread: both quartiles are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
