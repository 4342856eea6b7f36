package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin histogram over [Lo, Hi). Values outside the range
// are clamped into the first/last bin so no observation is silently dropped.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with n bins over [lo, hi). It panics for
// invalid arguments.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	n := len(h.Counts)
	i := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	h.Counts[i]++
	h.total++
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Density returns the fraction of observations in bin i.
func (h *Histogram) Density(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Modes returns the bin centers of local maxima whose density exceeds
// minDensity, separated by at least minGap bins. This is how we count the
// "peaks" of the multimodal throughput distributions (paper Fig 2/24).
func (h *Histogram) Modes(minDensity float64, minGap int) []float64 {
	var modes []float64
	lastIdx := -minGap - 1
	for i := range h.Counts {
		d := h.Density(i)
		if d < minDensity {
			continue
		}
		isPeak := true
		for j := i - minGap; j <= i+minGap; j++ {
			if j < 0 || j >= len(h.Counts) || j == i {
				continue
			}
			if h.Counts[j] > h.Counts[i] {
				isPeak = false
				break
			}
		}
		if isPeak && i-lastIdx > minGap {
			modes = append(modes, h.BinCenter(i))
			lastIdx = i
		}
	}
	return modes
}

// ViolinSummary captures the quantile skeleton of a distribution: enough to
// reproduce the "violin plot" comparisons in the paper as numeric rows.
type ViolinSummary struct {
	N                  int
	Mean, Std          float64
	Min, P5, P25       float64
	Median, P75, P95   float64
	Max                float64
	CoefficientOfVar   float64 // Std/Mean, the paper's variability proxy
	InterquartileRange float64
}

// Violin computes a ViolinSummary of xs.
func Violin(xs []float64) ViolinSummary {
	qs := Quantiles(xs, 0, 0.05, 0.25, 0.5, 0.75, 0.95, 1)
	m := Mean(xs)
	sd := StdDev(xs)
	cv := math.NaN()
	if m != 0 {
		cv = sd / m
	}
	return ViolinSummary{
		N: len(xs), Mean: m, Std: sd,
		Min: qs[0], P5: qs[1], P25: qs[2], Median: qs[3], P75: qs[4], P95: qs[5], Max: qs[6],
		CoefficientOfVar:   cv,
		InterquartileRange: qs[4] - qs[2],
	}
}

// String formats the summary as one table row.
func (v ViolinSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f std=%.1f p5=%.1f p25=%.1f med=%.1f p75=%.1f p95=%.1f peak=%.1f cv=%.2f",
		v.N, v.Mean, v.Std, v.P5, v.P25, v.Median, v.P75, v.P95, v.Max, v.CoefficientOfVar)
}
