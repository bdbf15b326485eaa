package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle ones for an even
// count), 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// builder's driver uses for spreads. It needs two samples; with fewer both
// quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailPercentile implements the reporting rule for timings: the highest
// percentile that still has at least ten samples beyond it. With fewer
// than twenty samples no tail is reported (ok is false) and the median
// stands alone.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	s := sorted(xs)
	i := n - 11 // ten samples lie beyond s[i]
	return 100 * float64(i+1) / float64(n), s[i], true
}

// nearestRank returns the p-th percentile (0 < p <= 100) by nearest rank.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
