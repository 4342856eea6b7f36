package predictors

import (
	"math"
	"testing"

	"prism5g/internal/ml"
	"prism5g/internal/nn"
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// synthDataset builds traces whose aggregate throughput follows a
// learnable pattern: a CC-count regime (1 or 2 CCs) plus a slow sine, with
// matching per-CC features.
func synthDataset(nTraces, samples int, seed uint64) *trace.Dataset {
	src := rng.New(seed)
	d := &trace.Dataset{Name: "synth", StepS: 1}
	for ti := 0; ti < nTraces; ti++ {
		tr := trace.Trace{
			Meta:  trace.Meta{Operator: "OpZ", Scenario: "urban", Mobility: "walking", Route: ti / 2, Run: ti % 2},
			StepS: 1,
		}
		phase := src.Range(0, 6)
		regimeLen := 40 + src.Intn(30)
		for i := 0; i < samples; i++ {
			var s trace.Sample
			s.T = float64(i)
			twoCC := (i/regimeLen)%2 == 1
			base := 200 + 80*math.Sin(2*math.Pi*float64(i)/50+phase)
			cc0 := base * (0.95 + 0.1*src.Float64())
			s.CCs[0] = synthCC(cc0, true, src)
			s.AggTput = cc0
			s.NumActiveCCs = 1
			if twoCC {
				cc1 := 150 * (0.95 + 0.1*src.Float64())
				s.CCs[1] = synthCC(cc1, true, src)
				s.AggTput += cc1
				s.NumActiveCCs = 2
			}
			// Event markers at regime boundaries, leading by one step.
			if (i+1)/regimeLen != i/regimeLen {
				if twoCC {
					s.CCs[1].Vec[trace.FEvent] = -1
				} else {
					s.CCs[1] = synthCC(0, false, src)
					s.CCs[1].Present = true
					s.CCs[1].Vec[trace.FEvent] = 1
				}
			}
			tr.Samples = append(tr.Samples, s)
		}
		d.Traces = append(d.Traces, tr)
	}
	return d
}

func synthCC(tput float64, active bool, src *rng.Source) trace.CC {
	var cc trace.CC
	cc.Present = true
	cc.BandName = "n41"
	cc.ChannelID = "n41^a"
	if active {
		cc.Vec[trace.FActive] = 1
	}
	cc.Vec[trace.FBWMHz] = 100
	cc.Vec[trace.FFreqGHz] = 2.5
	cc.Vec[trace.FRSRP] = -85 + src.NormMS(0, 2)
	cc.Vec[trace.FRSRQ] = -11
	cc.Vec[trace.FSINR] = 18 + src.NormMS(0, 1)
	cc.Vec[trace.FCQI] = 12
	cc.Vec[trace.FBLER] = 0.1
	cc.Vec[trace.FRB] = 180
	cc.Vec[trace.FLayers] = 4
	cc.Vec[trace.FMCS] = 22
	cc.Vec[trace.FTput] = tput
	return cc
}

// problem prepares windows for the synthetic dataset.
func problem(t *testing.T, seed uint64) (*trace.Dataset, *trace.Scaler, []trace.Window, []trace.Window, []trace.Window) {
	t.Helper()
	ds := synthDataset(5, 160, seed)
	sc := &trace.Scaler{}
	sc.Fit(ds.Traces)
	ws := trace.Windows(ds, sc, trace.WindowOpts{History: 10, Horizon: 10, Stride: 2})
	train, val, test := trace.Split(ws, 0.5, 0.2, rng.New(seed))
	return ds, sc, train, val, test
}

func quickOpts() TrainOpts {
	return TrainOpts{Epochs: 50, Batch: 64, LR: 0.01, Patience: 10, Seed: 1}
}

// persistenceRMSE is the trivial "repeat last value" baseline any learner
// must beat on this dataset.
func persistenceRMSE(ws []trace.Window) float64 {
	var se float64
	n := 0
	for _, w := range ws {
		hist := w.AggHist()
		last := hist[len(hist)-1]
		for _, y := range w.Y() {
			se += (last - y) * (last - y)
			n++
		}
	}
	return math.Sqrt(se / float64(n))
}

func TestAggFeaturesShape(t *testing.T) {
	_, _, train, _, _ := problem(t, 1)
	f := aggFeaturesInto(new(nn.Arena), train[0])
	if len(f) != 10 || len(f[0]) != AggFeatureDim {
		t.Fatalf("shape = %dx%d", len(f), len(f[0]))
	}
	flat := FlattenAggFeatures(train[0])
	if len(flat) != 10*AggFeatureDim {
		t.Fatalf("flat len = %d", len(flat))
	}
	// CA-blindness: the baseline features must not contain the event
	// channel or per-SCell data. Feature 0 is the aggregate history.
	if f[0][0] != train[0].AggHist()[0] {
		t.Fatal("feature 0 should be aggregate history")
	}
}

func TestLSTMPredictorLearns(t *testing.T) {
	_, _, train, val, test := problem(t, 2)
	p := NewLSTMPredictor(16, 10, quickOpts())
	rep := p.Train(train, val)
	if rep.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
	rmse := Evaluate(p, test)
	if pers := persistenceRMSE(test); rmse >= pers {
		t.Fatalf("LSTM RMSE %.4f did not beat persistence %.4f", rmse, pers)
	}
	// Predictions finite and length 10.
	y := p.Predict(test[0])
	if len(y) != 10 {
		t.Fatalf("horizon = %d", len(y))
	}
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite prediction")
		}
	}
}

func TestTCNPredictorLearns(t *testing.T) {
	_, _, train, val, test := problem(t, 3)
	p := NewTCNPredictor(16, 10, quickOpts())
	p.Train(train, val)
	if rmse, pers := Evaluate(p, test), persistenceRMSE(test); rmse >= pers {
		t.Fatalf("TCN RMSE %.4f did not beat persistence %.4f", rmse, pers)
	}
}

func TestLumos5GLearns(t *testing.T) {
	_, _, train, val, test := problem(t, 4)
	p := NewLumos5G(16, 10, quickOpts())
	p.Train(train, val)
	if rmse, pers := Evaluate(p, test), persistenceRMSE(test); rmse >= pers {
		t.Fatalf("Lumos5G RMSE %.4f did not beat persistence %.4f", rmse, pers)
	}
}

func TestTreePredictors(t *testing.T) {
	_, _, train, val, test := problem(t, 5)
	for _, kind := range []TreeKind{KindGBDT, KindRF} {
		p := NewTreePredictor(kind, 10, 7)
		rep := p.Train(train, val)
		if rep.ValRMSE <= 0 {
			t.Fatalf("%s: no val RMSE", p.Name())
		}
		if rmse, pers := Evaluate(p, test), persistenceRMSE(test); rmse >= pers {
			t.Fatalf("%s RMSE %.4f did not beat persistence %.4f", p.Name(), rmse, pers)
		}
	}
}

func TestProphetPredictor(t *testing.T) {
	ds, sc, _, _, test := problem(t, 6)
	_ = sc
	p := NewProphetPredictor(ds, mlDefaultProphet())
	rmse := Evaluate(p, test)
	if math.IsNaN(rmse) || rmse <= 0 {
		t.Fatalf("Prophet RMSE = %f", rmse)
	}
	y := p.Predict(test[0])
	if len(y) != 10 {
		t.Fatalf("horizon = %d", len(y))
	}
}

func TestHarmonicMeanPredictor(t *testing.T) {
	_, _, _, _, test := problem(t, 7)
	p := &HarmonicMean{Horizon: 10}
	p.Train(nil, nil)
	y := p.Predict(test[0])
	if len(y) != 10 {
		t.Fatal("horizon wrong")
	}
	for i := 1; i < len(y); i++ {
		if y[i] != y[0] {
			t.Fatal("harmonic mean should be constant over horizon")
		}
	}
}

func TestTrainingDeterminism(t *testing.T) {
	_, _, train, val, test := problem(t, 8)
	a := NewLSTMPredictor(8, 10, quickOpts())
	b := NewLSTMPredictor(8, 10, quickOpts())
	a.Train(train, val)
	b.Train(train, val)
	ya := a.Predict(test[0])
	yb := b.Predict(test[0])
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("same-seed training diverged")
		}
	}
}

func TestEarlyStopping(t *testing.T) {
	_, _, train, val, _ := problem(t, 9)
	opts := quickOpts()
	opts.Epochs = 100
	opts.Patience = 2
	p := NewLSTMPredictor(8, 10, opts)
	rep := p.Train(train, val)
	if rep.Epochs >= 100 {
		t.Fatalf("early stopping never fired: %d epochs", rep.Epochs)
	}
}

func TestRebind(t *testing.T) {
	ds, _, _, _, _ := problem(t, 10)
	p := NewProphetPredictor(ds, mlDefaultProphet())
	ds2 := synthDataset(1, 60, 99)
	p2 := p.Rebind(ds2).(*ProphetPredictor)
	if p2.DS != ds2 {
		t.Fatal("rebind did not switch dataset")
	}
	if p.DS == ds2 {
		t.Fatal("rebind mutated the original")
	}
}

func TestTrainReportString(t *testing.T) {
	r := TrainReport{Epochs: 5, TrainRMSE: 0.1, ValRMSE: 0.2}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

// mlDefaultProphet returns the default Prophet options.
func mlDefaultProphet() ml.ProphetOpts { return ml.DefaultProphetOpts() }
