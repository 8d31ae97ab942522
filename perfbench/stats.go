package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail is chosen from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of xs (0 when xs
// is empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the 50th percentile, averaging the two middle values of an
// even-sized sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest ladder percentile that has at least ten
// samples beyond it, and its value. With fewer than twenty samples no
// percentile qualifies and the median stands in.
func tail(xs []float64) (pct, value float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(1-p/100) >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 50, percentile(xs, 50)
}
