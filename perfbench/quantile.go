package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a quantile before it is
// reported: a p99 from fewer is just the maximum under another name.
const minTail = 10

// quantile returns the nearest-rank q-quantile of samples, computed from the
// raw values (never a histogram bucket edge), and whether it may be
// reported: at least minTail samples lie beyond it. The value is always an
// observed sample, so it never exceeds the observed maximum. samples must
// be sorted ascending.
func quantile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || q < 0 || q > 1 {
		return 0, false
	}
	// The epsilon keeps q*n that is an integer in exact arithmetic from
	// rounding up a rank.
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return samples[idx], n-1-idx >= minTail
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (any order); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
