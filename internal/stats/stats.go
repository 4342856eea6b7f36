// Package stats provides the statistical primitives used across the
// measurement analysis and the model evaluation: error metrics, correlation,
// quantiles, histograms, and streaming moment accumulators.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// RMSE returns the root-mean-square error between predictions and targets.
// It panics if the lengths differ and returns NaN for empty input.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: RMSE length mismatch")
	}
	if len(pred) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It panics on length mismatch and returns NaN if either series is constant
// or empty.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// Quantiles returns multiple quantiles with a single sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// HarmonicMean returns the harmonic mean of xs, ignoring non-positive
// entries. It returns 0 if no positive entries exist. This is the estimator
// used by the MPC ABR baseline.
func HarmonicMean(xs []float64) float64 {
	n := 0
	s := 0.0
	for _, x := range xs {
		if x > 0 {
			s += 1 / x
			n++
		}
	}
	if n == 0 || s == 0 {
		return 0
	}
	return float64(n) / s
}

// Welford is a streaming mean/variance accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (NaN if empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the running population variance (NaN if empty).
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
