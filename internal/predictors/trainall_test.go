package predictors

import (
	"context"
	"math"
	"testing"

	"prism5g/internal/trace"
)

// hmWindow builds a bare window carrying only the throughput history
// HarmonicMean reads.
func hmWindow(hist ...float64) trace.Window {
	w := trace.NewWindow(len(hist), 0)
	copy(w.AggHist(), hist)
	return w
}

// TestHarmonicMeanOutageWindow is the regression for the zero-handling
// defect: stats.HarmonicMean silently skips non-positive entries, so a
// window dominated by RLF-outage zeros used to estimate full bandwidth
// from the lone surviving sample — [0 0 0 300] predicted 300. The fixed
// predictor floors outage samples instead, dragging the estimate toward
// zero as a conservative MPC bandwidth estimator must.
func TestHarmonicMeanOutageWindow(t *testing.T) {
	p := &HarmonicMean{Horizon: 4}
	p.Train(nil, nil)

	y := p.Predict(hmWindow(0, 0, 0, 300))
	if len(y) != 4 {
		t.Fatalf("horizon = %d, want 4", len(y))
	}
	// Pre-fix this was exactly 300; the floored harmonic mean of
	// {1e-6, 1e-6, 1e-6, 300} is ~1.3e-6.
	if y[0] >= 1 {
		t.Fatalf("outage window predicts %v, want estimate dragged toward zero", y[0])
	}
	if y[0] <= 0 || math.IsNaN(y[0]) {
		t.Fatalf("outage window predicts %v, want small positive", y[0])
	}

	// A fully-dead window still yields a finite, non-zero floor value —
	// downstream RMSE math must not see NaN.
	y = p.Predict(hmWindow(0, 0, 0, 0))
	if y[0] <= 0 || math.IsNaN(y[0]) || math.IsInf(y[0], 0) {
		t.Fatalf("all-outage window predicts %v, want the floor value", y[0])
	}

	// Negative spillover from aggressive scaling is treated like an
	// outage, not bandwidth.
	y = p.Predict(hmWindow(-5, 200, 200, 200))
	if y[0] >= 200 {
		t.Fatalf("negative sample ignored: predict %v, want < 200", y[0])
	}

	// Non-finite corruption is dropped, not floored: a NaN is a missing
	// sensor read, not a measured outage.
	y = p.Predict(hmWindow(math.NaN(), 200, 200, math.Inf(1)))
	if math.Abs(y[0]-200) > 1e-9 {
		t.Fatalf("non-finite samples skewed the estimate: %v, want 200", y[0])
	}

	// A clean window is unchanged by the sanitizer.
	y = p.Predict(hmWindow(100, 200, 400))
	want := 3 / (1/100.0 + 1/200.0 + 1/400.0)
	if math.Abs(y[0]-want) > 1e-9 {
		t.Fatalf("clean window predicts %v, want %v", y[0], want)
	}
}

// TestTrainAllMatchesSerial checks the concurrent training helper: reports
// come back in model order and the trained models predict exactly what
// serially-trained twins predict, at any worker count.
func TestTrainAllMatchesSerial(t *testing.T) {
	_, _, train, val, test := problem(t, 11)

	build := func() []Predictor {
		return []Predictor{
			NewTreePredictor(KindGBDT, 10, 7),
			&HarmonicMean{Horizon: 10},
			NewLSTMPredictor(8, 10, quickOpts()),
		}
	}

	serial := build()
	var serialReps []TrainReport
	for _, m := range serial {
		serialReps = append(serialReps, m.Train(train, val))
	}

	for _, workers := range []int{1, 4} {
		models := build()
		reps, err := TrainAll(context.Background(), models, train, val, workers)
		if err != nil {
			t.Fatalf("TrainAll(workers=%d): %v", workers, err)
		}
		if len(reps) != len(models) {
			t.Fatalf("workers=%d: %d reports for %d models", workers, len(reps), len(models))
		}
		for i, m := range models {
			if reps[i].Epochs != serialReps[i].Epochs {
				t.Fatalf("workers=%d model %s: epochs %d, want %d",
					workers, m.Name(), reps[i].Epochs, serialReps[i].Epochs)
			}
			if reps[i].Duration <= 0 {
				t.Fatalf("workers=%d model %s: duration %v not recorded", workers, m.Name(), reps[i].Duration)
			}
			ya, yb := m.Predict(test[0]), serial[i].Predict(test[0])
			for j := range ya {
				if ya[j] != yb[j] {
					t.Fatalf("workers=%d model %s diverged from serial at %d: %v vs %v",
						workers, m.Name(), j, ya[j], yb[j])
				}
			}
		}
	}
}
