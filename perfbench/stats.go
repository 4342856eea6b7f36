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

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// nearestRank is the p-th percentile (0 < p <= 100) of an ascending slice
// by the nearest-rank rule.
func nearestRank(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(len(asc))-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	return asc[k]
}

// tailPercentiles are the candidates tailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// tailPercentile returns the highest percentile of tailPercentiles that has
// at least ten samples beyond it, and its value; ok is false when not even
// the median does.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// The epsilon keeps 0.999 * 10000 at rank 9990, not 9991.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, math.NaN(), false
}
