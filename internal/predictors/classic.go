package predictors

import (
	"math"

	"prism5g/internal/ml"
	"prism5g/internal/rng"
	"prism5g/internal/stats"
	"prism5g/internal/trace"
)

// ProphetPredictor is the statistical time-series baseline. Per the paper's
// Appendix C.1 it is refit on a sliding window for every prediction
// (cross-validation schema) from the trace's aggregate history, so it needs
// the source dataset, not just the window.
type ProphetPredictor struct {
	DS   *trace.Dataset
	Opts ml.ProphetOpts
}

// NewProphetPredictor creates the baseline over the dataset the windows
// were extracted from.
func NewProphetPredictor(ds *trace.Dataset, opts ml.ProphetOpts) *ProphetPredictor {
	return &ProphetPredictor{DS: ds, Opts: opts}
}

// Name implements Predictor.
func (p *ProphetPredictor) Name() string { return "Prophet" }

// Rebind returns a Prophet predictor reading trace history from a different
// dataset. Prophet has no trained state, so online consumers (the QoE
// applications) rebind it to the trace being streamed.
func (p *ProphetPredictor) Rebind(ds *trace.Dataset) Predictor {
	return &ProphetPredictor{DS: ds, Opts: p.Opts}
}

// Train implements Predictor; Prophet has no global fit.
func (p *ProphetPredictor) Train(train, val []trace.Window) TrainReport {
	return TrainReport{}
}

// Predict refits on the trace history ending at the window's history end
// and forecasts the horizon. Note: this gives Prophet MORE history than the
// neural baselines see (the paper grants it the same advantage).
func (p *ProphetPredictor) Predict(w trace.Window) []float64 {
	tr := &p.DS.Traces[w.TraceIdx]
	histEnd := w.Start + len(w.AggHist)
	series := make([]float64, histEnd)
	// Prophet works on the scaled series so RMSEs are comparable; the
	// aggregate scale is recovered from the window itself.
	for i := 0; i < histEnd; i++ {
		series[i] = tr.Samples[i].AggTput
	}
	// Scale using the window's own scaled history as the reference:
	// derive the affine map from raw to scaled via two distinct points,
	// falling back to raw forecasting when degenerate.
	horizon := len(w.Y)
	raw := ml.Forecast(series, horizon, p.Opts)
	a, b, ok := affineFromWindow(tr, w)
	if !ok {
		return raw
	}
	out := make([]float64, horizon)
	for i, v := range raw {
		out[i] = a*v + b
	}
	return out
}

// affineFromWindow recovers the raw->scaled affine transform by comparing
// the window's scaled history with the trace's raw samples.
func affineFromWindow(tr *trace.Trace, w trace.Window) (a, b float64, ok bool) {
	var x1, y1 float64
	found1 := false
	for i, ys := range w.AggHist {
		xr := tr.Samples[w.Start+i].AggTput
		if !found1 {
			x1, y1 = xr, ys
			found1 = true
			continue
		}
		if xr != x1 {
			a = (ys - y1) / (xr - x1)
			b = y1 - a*x1
			return a, b, true
		}
	}
	return 0, 0, false
}

// TreeKind distinguishes the two tree-ensemble baselines.
type TreeKind uint8

const (
	// KindGBDT is gradient-boosted decision trees.
	KindGBDT TreeKind = iota
	// KindRF is random forest.
	KindRF
)

// TreePredictor wraps GBDT/RF over flattened window features, fitting one
// regressor per horizon step (the standard multi-output reduction).
type TreePredictor struct {
	Kind    TreeKind
	Horizon int
	Seed    uint64

	gbdt []*ml.GBDT
	rf   []*ml.Forest
}

// NewTreePredictor creates a GBDT or RF baseline.
func NewTreePredictor(kind TreeKind, horizon int, seed uint64) *TreePredictor {
	return &TreePredictor{Kind: kind, Horizon: horizon, Seed: seed}
}

// Name implements Predictor.
func (p *TreePredictor) Name() string {
	if p.Kind == KindRF {
		return "RF"
	}
	return "GBDT"
}

// maxTreeTrain caps the ensemble fitting set; split search is O(n log n)
// per node and gains little beyond this many windows.
const maxTreeTrain = 1200

// Train implements Predictor.
func (p *TreePredictor) Train(train, val []trace.Window) TrainReport {
	if len(train) > maxTreeTrain {
		stride := (len(train) + maxTreeTrain - 1) / maxTreeTrain
		var sub []trace.Window
		for i := 0; i < len(train); i += stride {
			sub = append(sub, train[i])
		}
		train = sub
	}
	X := make([][]float64, len(train))
	for i, w := range train {
		X[i] = FlattenAggFeatures(w)
	}
	src := rng.New(p.Seed ^ 0x7ee5)
	p.gbdt = nil
	p.rf = nil
	for h := 0; h < p.Horizon; h++ {
		y := make([]float64, len(train))
		for i, w := range train {
			y[i] = w.Y[h]
		}
		if p.Kind == KindRF {
			opts := ml.DefaultForestOpts()
			opts.Trees = 30
			p.rf = append(p.rf, ml.FitForest(X, y, opts, src))
		} else {
			opts := ml.DefaultGBDTOpts()
			opts.Trees = 60
			p.gbdt = append(p.gbdt, ml.FitGBDT(X, y, opts, src))
		}
	}
	var report TrainReport
	report.TrainRMSE = Evaluate(p, train)
	if len(val) > 0 {
		report.ValRMSE = Evaluate(p, val)
	}
	return report
}

// Predict implements Predictor.
func (p *TreePredictor) Predict(w trace.Window) []float64 {
	x := FlattenAggFeatures(w)
	out := make([]float64, p.Horizon)
	for h := 0; h < p.Horizon; h++ {
		switch {
		case p.Kind == KindRF && h < len(p.rf):
			out[h] = p.rf[h].Predict(x)
		case p.Kind == KindGBDT && h < len(p.gbdt):
			out[h] = p.gbdt[h].Predict(x)
		}
	}
	return out
}

// HarmonicMean is MPC's default bandwidth estimator: the harmonic mean of
// the recent aggregate throughput, held constant over the horizon.
type HarmonicMean struct {
	Horizon int
}

// Name implements Predictor.
func (p *HarmonicMean) Name() string { return "HarmonicMean" }

// Train implements Predictor (no parameters).
func (p *HarmonicMean) Train(train, val []trace.Window) TrainReport { return TrainReport{} }

// hmFloor is the throughput floor (scaled units) substituted for zero or
// negative history samples. RLF outages write exact zeros into the history;
// a harmonic mean must count them as (near-)zero bandwidth, not skip them.
const hmFloor = 1e-6

// Predict implements Predictor. The history window is sanitized first:
// non-finite samples (corrupted sensor reads that bypassed repair) are
// dropped, and zero or negative samples — routine during injected radio
// link failure outages — are floored to hmFloor instead of being ignored.
// stats.HarmonicMean skips non-positive entries, so an outage-heavy window
// like [0 0 0 300] would otherwise estimate 300 Mbps of bandwidth where the
// link was down three quarters of the time; flooring drags the estimate
// toward zero, which is what MPC's conservative estimator is for.
func (p *HarmonicMean) Predict(w trace.Window) []float64 {
	hist := make([]float64, 0, len(w.AggHist))
	for _, v := range w.AggHist {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			continue
		case v < hmFloor:
			hist = append(hist, hmFloor)
		default:
			hist = append(hist, v)
		}
	}
	h := stats.HarmonicMean(hist)
	out := make([]float64, p.Horizon)
	for i := range out {
		out[i] = h
	}
	return out
}
