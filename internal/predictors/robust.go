package predictors

import (
	"fmt"
	"sync/atomic"

	"prism5g/internal/trace"
)

// Resilient wraps a predictor with crash containment: a panic during Train
// demotes the wrapper to its fallback (MPC's harmonic-mean estimator — the
// weakest predictor in the study, but one that cannot fail), a panic
// during Predict answers from the fallback for that window, and non-finite
// prediction values are replaced by the fallback's. The QoE applications
// built on the predictor (adaptive streaming, MPC) need a forecast every
// step; a dead predictor mid-session is strictly worse than a crude one.
//
// Predict and PredictChecked are safe for concurrent use as long as the
// wrapped predictor's own Predict is: the forecast server shares one
// wrapper across all handler goroutines. Train is not concurrent with
// Predict (train first, then serve).
type Resilient struct {
	inner    Predictor
	fallback Predictor
	demoted  atomic.Bool

	trainPanics   atomic.Int64
	predictPanics atomic.Int64
	sanitized     atomic.Int64
}

// NewResilient wraps p; horizon sizes the harmonic-mean fallback.
func NewResilient(p Predictor, horizon int) *Resilient {
	if horizon <= 0 {
		horizon = 10
	}
	return &Resilient{inner: p, fallback: &HarmonicMean{Horizon: horizon}}
}

// Name implements Predictor, passing through the wrapped name so result
// tables stay comparable.
func (r *Resilient) Name() string { return r.inner.Name() }

// Demoted reports whether a training crash demoted the wrapper to its
// fallback predictor.
func (r *Resilient) Demoted() bool { return r.demoted.Load() }

// TrainPanicCount, PredictPanicCount and SanitizedCount report the
// interventions so far; all are safe to read concurrently with Predict.
func (r *Resilient) TrainPanicCount() int   { return int(r.trainPanics.Load()) }
func (r *Resilient) PredictPanicCount() int { return int(r.predictPanics.Load()) }
func (r *Resilient) SanitizedCount() int    { return int(r.sanitized.Load()) }

// Train implements Predictor. A panic in the wrapped predictor is
// recovered and the wrapper demotes itself to the fallback.
func (r *Resilient) Train(train, val []trace.Window) (rep TrainReport) {
	defer func() {
		if p := recover(); p != nil {
			r.trainPanics.Add(1)
			r.demoted.Store(true)
			rep = r.fallback.Train(train, val)
			rep.Fallback = true
		}
	}()
	rep = r.inner.Train(train, val)
	return rep
}

// Predict implements Predictor. Panics and non-finite values degrade to
// the fallback's forecast instead of propagating.
func (r *Resilient) Predict(w trace.Window) []float64 {
	y, _ := r.PredictChecked(w)
	return y
}

// PredictChecked is Predict also reporting whether the wrapper had to
// intervene on this call — a recovered panic, a nil forecast or a
// non-finite value swapped for the fallback's. Serving-side circuit
// breakers key on the per-call flag rather than on counter deltas, which
// would misattribute failures across concurrent requests.
func (r *Resilient) PredictChecked(w trace.Window) (y []float64, intervened bool) {
	if r.demoted.Load() {
		return r.fallback.Predict(w), true
	}
	panicked := false
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.predictPanics.Add(1)
				panicked = true
			}
		}()
		y = r.inner.Predict(w)
	}()
	if panicked || y == nil {
		return r.fallback.Predict(w), true
	}
	var fb []float64
	for i := range y {
		if finite(y[i]) {
			continue
		}
		if fb == nil {
			fb = r.fallback.Predict(w)
		}
		y[i] = fb[i]
		r.sanitized.Add(1)
		intervened = true
	}
	return y, intervened
}

// String summarizes the interventions.
func (r *Resilient) String() string {
	return fmt.Sprintf("resilient(%s): trainPanics=%d predictPanics=%d sanitized=%d demoted=%v",
		r.inner.Name(), r.TrainPanicCount(), r.PredictPanicCount(), r.SanitizedCount(), r.Demoted())
}
