package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("Mean = %f", m)
	}
	if v := Variance(xs); !almost(v, 4, 1e-12) {
		t.Fatalf("Variance = %f", v)
	}
	if sd := StdDev(xs); !almost(sd, 2, 1e-12) {
		t.Fatalf("StdDev = %f", sd)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	for name, v := range map[string]float64{
		"mean":     Mean(nil),
		"variance": Variance(nil),
		"quantile": Quantile(nil, 0.5),
		"rmse":     RMSE(nil, nil),
		"pearson":  Pearson(nil, nil),
	} {
		if !math.IsNaN(v) {
			t.Fatalf("%s(empty) = %f, want NaN", name, v)
		}
	}
}

func TestRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 3}
	if r := RMSE(pred, truth); r != 0 {
		t.Fatalf("RMSE identical = %f", r)
	}
	if r := RMSE([]float64{0, 0}, []float64{3, 4}); !almost(r, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("RMSE = %f", r)
	}
}

func TestRMSELengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatch")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almost(r, 1, 1e-12) {
		t.Fatalf("Pearson = %f", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almost(r, -1, 1e-12) {
		t.Fatalf("Pearson = %f", r)
	}
}

func TestPearsonConstantIsNaN(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); !math.IsNaN(r) {
		t.Fatalf("Pearson constant = %f", r)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(a, b, c, d, e, f1, g, h float64) bool {
		xs := []float64{a, b, c, d}
		ys := []float64{e, f1, g, h}
		r := Pearson(xs, ys)
		return math.IsNaN(r) || (r >= -1.0000001 && r <= 1.0000001)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %f", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %f", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %f", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25 = %f", q)
	}
	// Interpolation case.
	if q := Quantile([]float64{0, 10}, 0.75); !almost(q, 7.5, 1e-12) {
		t.Fatalf("interp = %f", q)
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(a, b, c, d, e float64) bool {
		xs := []float64{a, b, c, d, e}
		q1 := Quantile(xs, 0.2)
		q2 := Quantile(xs, 0.8)
		return q1 <= q2 || math.IsNaN(q1) || math.IsNaN(q2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesMatchQuantile(t *testing.T) {
	xs := []float64{5, 3, 8, 1, 9, 2}
	qs := Quantiles(xs, 0.1, 0.5, 0.9)
	for i, q := range []float64{0.1, 0.5, 0.9} {
		if qs[i] != Quantile(xs, q) {
			t.Fatalf("Quantiles mismatch at %f", q)
		}
	}
}

func TestHarmonicMean(t *testing.T) {
	if h := HarmonicMean([]float64{1, 4, 4}); !almost(h, 2, 1e-12) {
		t.Fatalf("harmonic = %f", h)
	}
	// Non-positive values ignored.
	if h := HarmonicMean([]float64{-1, 0, 1, 4, 4}); !almost(h, 2, 1e-12) {
		t.Fatalf("harmonic with junk = %f", h)
	}
	if h := HarmonicMean([]float64{0, -2}); h != 0 {
		t.Fatalf("harmonic all-nonpositive = %f", h)
	}
	// Harmonic mean never exceeds arithmetic mean for positive inputs.
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{4, 8, 15, 16, 23, 42}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if !almost(w.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("mean %f vs %f", w.Mean(), Mean(xs))
	}
	if !almost(w.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("var %f vs %f", w.Variance(), Variance(xs))
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) {
		t.Fatal("empty Welford should be NaN")
	}
}

func TestHistogramBinningAndClamp(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0.5)  // bin 0
	h.Add(9.5)  // bin 9
	h.Add(-5)   // clamp to 0
	h.Add(100)  // clamp to 9
	h.Add(5.01) // bin 5
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("total = %d", total)
	}
	if h.Counts[0] != 2 || h.Counts[9] != 2 || h.Counts[5] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if c := h.BinCenter(0); !almost(c, 0.5, 1e-12) {
		t.Fatalf("center = %f", c)
	}
	if d := h.Density(0); !almost(d, 0.4, 1e-12) {
		t.Fatalf("density = %f", d)
	}
}

func TestHistogramModes(t *testing.T) {
	h := NewHistogram(0, 100, 20)
	// Two clear modes around 10 and 80.
	for i := 0; i < 50; i++ {
		h.Add(10)
		h.Add(80)
	}
	for i := 0; i < 5; i++ {
		h.Add(45)
	}
	modes := h.Modes(0.1, 2)
	if len(modes) != 2 {
		t.Fatalf("modes = %v, want 2 modes", modes)
	}
	if !(modes[0] > 5 && modes[0] < 15) || !(modes[1] > 75 && modes[1] < 85) {
		t.Fatalf("mode positions = %v", modes)
	}
}

func TestViolinSummary(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	v := Violin(xs)
	if v.N != 101 || v.Min != 0 || v.Max != 100 {
		t.Fatalf("summary = %+v", v)
	}
	if !almost(v.Median, 50, 1e-9) || !almost(v.P25, 25, 1e-9) || !almost(v.P75, 75, 1e-9) {
		t.Fatalf("quantiles = %+v", v)
	}
	if !almost(v.InterquartileRange, 50, 1e-9) {
		t.Fatalf("IQR = %f", v.InterquartileRange)
	}
	if v.String() == "" {
		t.Fatal("empty String()")
	}
}
