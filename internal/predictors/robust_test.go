package predictors

import (
	"math"
	"testing"

	"prism5g/internal/nn"
	"prism5g/internal/trace"
)

func mkWindow(hist, horizon int, fill float64) trace.Window {
	w := trace.Window{
		X:       make([][][]float64, trace.MaxCC),
		Mask:    make([][]float64, trace.MaxCC),
		AggHist: make([]float64, hist),
		Y:       make([]float64, horizon),
		YPerCC:  make([][]float64, trace.MaxCC),
	}
	for c := 0; c < trace.MaxCC; c++ {
		w.X[c] = make([][]float64, hist)
		w.Mask[c] = make([]float64, hist)
		w.YPerCC[c] = make([]float64, horizon)
		for t := 0; t < hist; t++ {
			w.X[c][t] = make([]float64, trace.NumCCFeatures)
			for f := range w.X[c][t] {
				w.X[c][t][f] = fill
			}
		}
	}
	for t := range w.AggHist {
		w.AggHist[t] = fill
	}
	for h := range w.Y {
		w.Y[h] = fill
	}
	return w
}

func TestValidWindow(t *testing.T) {
	if !ValidWindow(mkWindow(10, 10, 0.5)) {
		t.Fatal("clean window flagged invalid")
	}
	bad := mkWindow(10, 10, 0.5)
	bad.Y[3] = math.NaN()
	if ValidWindow(bad) {
		t.Fatal("NaN target passed ValidWindow")
	}
	bad2 := mkWindow(10, 10, 0.5)
	bad2.X[1][4][trace.FSINR] = math.Inf(1)
	if ValidWindow(bad2) {
		t.Fatal("Inf feature passed ValidWindow")
	}
}

func TestEvaluateSkipsInvalidWindows(t *testing.T) {
	p := &HarmonicMean{Horizon: 10}
	ws := []trace.Window{mkWindow(10, 10, 0.4), mkWindow(10, 10, 0.6)}
	poisoned := mkWindow(10, 10, 0.5)
	poisoned.AggHist[2] = math.NaN()
	ws = append(ws, poisoned)
	rmse, skipped := EvaluateSkipping(p, ws)
	if skipped != 1 {
		t.Fatalf("skipped=%d, want 1", skipped)
	}
	if math.IsNaN(rmse) || math.IsInf(rmse, 0) {
		t.Fatalf("RMSE poisoned: %v", rmse)
	}
	if got := Evaluate(p, ws); math.IsNaN(got) {
		t.Fatal("Evaluate leaked NaN despite skipping")
	}
}

// brittleModel diverges — emits NaN — whenever training has moved its
// weight off the initialization, so every attempt ends in a rollback and
// the recovery machinery is exercised deterministically.
type brittleModel struct {
	p *nn.Param
}

func (m *brittleModel) Params() []*nn.Param { return []*nn.Param{m.p} }

func (m *brittleModel) ForwardBackward(w trace.Window, gScale float64) []float64 {
	out := make([]float64, len(w.Y))
	v := m.p.W[0]
	if math.Abs(v-0.5) > 1e-9 {
		v = math.NaN()
	}
	for i := range out {
		out[i] = v
	}
	if gScale > 0 {
		m.p.Grad[0] += gScale
	}
	return out
}

func TestTrainLoopRollsBackOnDivergence(t *testing.T) {
	m := &brittleModel{p: nn.NewParam("w", 1)}
	m.p.W[0] = 0.5
	train := []trace.Window{mkWindow(10, 10, 0.5), mkWindow(10, 10, 0.4)}
	val := []trace.Window{mkWindow(10, 10, 0.45)}
	rep := TrainLoop(m, train, val, TrainOpts{
		Epochs: 5, Batch: 2, LR: 0.1, Patience: 3, Seed: 1,
	})
	if rep.Retries != 2 {
		t.Fatalf("retries=%d, want the full bound 2: %s", rep.Retries, rep)
	}
	if !rep.Diverged {
		t.Fatal("persistent divergence not reported")
	}
	// The loop must have rolled back to the initialization — the only
	// known-good state — instead of returning NaN-adjacent weights.
	if m.p.W[0] != 0.5 {
		t.Fatalf("weights not restored to init: %v", m.p.W[0])
	}
}

func TestTrainLoopCleanRunNoRetries(t *testing.T) {
	p := NewLSTMPredictor(8, 10, TrainOpts{Epochs: 3, Batch: 8, LR: 0.01, Patience: 3, Seed: 1})
	var train []trace.Window
	for i := 0; i < 16; i++ {
		train = append(train, mkWindow(10, 10, 0.3+0.02*float64(i)))
	}
	rep := p.Train(train, nil)
	if rep.Retries != 0 || rep.Diverged {
		t.Fatalf("clean run triggered recovery: %s", rep)
	}
}

func TestTrainLoopFiltersPoisonedWindows(t *testing.T) {
	p := NewLSTMPredictor(8, 10, TrainOpts{Epochs: 3, Batch: 8, LR: 0.01, Patience: 3, Seed: 1})
	var train []trace.Window
	for i := 0; i < 12; i++ {
		train = append(train, mkWindow(10, 10, 0.3+0.02*float64(i)))
	}
	poison := mkWindow(10, 10, 0.5)
	poison.Y[0] = math.NaN()
	poison.X[0][0][trace.FRSRP] = math.Inf(1)
	train = append(train, poison)
	rep := p.Train(train, nil)
	if rep.Diverged {
		t.Fatalf("training diverged despite window filtering: %s", rep)
	}
	if !finite(rep.TrainRMSE) {
		t.Fatalf("TrainRMSE non-finite: %v", rep.TrainRMSE)
	}
	y := p.Predict(mkWindow(10, 10, 0.4))
	for i, v := range y {
		if !finite(v) {
			t.Fatalf("prediction[%d] non-finite after training on poisoned set: %v", i, v)
		}
	}
}

// panicky blows up in Train or Predict on demand.
type panicky struct {
	trainPanics   bool
	predictPanics bool
	nanOutput     bool
}

func (p *panicky) Name() string { return "panicky" }

func (p *panicky) Train(train, val []trace.Window) TrainReport {
	if p.trainPanics {
		panic("train exploded")
	}
	return TrainReport{}
}

func (p *panicky) Predict(w trace.Window) []float64 {
	if p.predictPanics {
		panic("predict exploded")
	}
	out := make([]float64, len(w.Y))
	for i := range out {
		out[i] = 0.5
	}
	if p.nanOutput {
		out[0] = math.NaN()
	}
	return out
}

func TestResilientRecoversTrainPanic(t *testing.T) {
	r := NewResilient(&panicky{trainPanics: true}, 10)
	rep := r.Train(nil, nil)
	if !rep.Fallback {
		t.Fatal("report does not flag the fallback")
	}
	if !r.Demoted() || r.TrainPanicCount() != 1 {
		t.Fatalf("wrapper state wrong: demoted=%v panics=%d", r.Demoted(), r.TrainPanicCount())
	}
	y := r.Predict(mkWindow(10, 10, 0.4))
	if len(y) != 10 {
		t.Fatalf("demoted predict returned %d steps", len(y))
	}
	for _, v := range y {
		if !finite(v) {
			t.Fatalf("demoted predict produced %v", v)
		}
	}
}

func TestResilientRecoversPredictPanic(t *testing.T) {
	r := NewResilient(&panicky{predictPanics: true}, 10)
	r.Train(nil, nil)
	y := r.Predict(mkWindow(10, 10, 0.4))
	if r.PredictPanicCount() != 1 {
		t.Fatalf("PredictPanicCount=%d, want 1", r.PredictPanicCount())
	}
	if len(y) != 10 {
		t.Fatalf("fallback predict returned %d steps", len(y))
	}
}

func TestResilientSanitizesNaNOutput(t *testing.T) {
	r := NewResilient(&panicky{nanOutput: true}, 10)
	y := r.Predict(mkWindow(10, 10, 0.4))
	if r.SanitizedCount() != 1 {
		t.Fatalf("SanitizedCount=%d, want 1", r.SanitizedCount())
	}
	for i, v := range y {
		if !finite(v) {
			t.Fatalf("output[%d] still non-finite: %v", i, v)
		}
	}
}
