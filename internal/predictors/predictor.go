// Package predictors wires the learning stack to the trace data model and
// implements the paper's baseline throughput predictors: Prophet [44],
// LSTM [28], TCN [9], Lumos5G's Seq2Seq [32], GBDT [32] and RF [4], plus the
// harmonic-mean estimator MPC uses. All baselines are CA-blind: they see the
// aggregate throughput history and the PCell's radio features — exactly the
// "blindly predict overall throughput" framing the paper contrasts with
// Prism5G's per-CC modeling.
package predictors

import (
	"fmt"
	"math"
	"time"

	"prism5g/internal/nn"
	"prism5g/internal/obs"
	"prism5g/internal/rng"
	"prism5g/internal/stats"
	"prism5g/internal/trace"
)

// Predictor forecasts the scaled aggregate throughput over the horizon.
type Predictor interface {
	// Name identifies the predictor in result tables.
	Name() string
	// Train fits the predictor.
	Train(train, val []trace.Window) TrainReport
	// Predict returns the scaled aggregate forecast, one value per
	// horizon step.
	Predict(w trace.Window) []float64
}

// EpochStat records one training epoch of TrainLoop or TrainLoopStream:
// the running train RMSE over the epoch's mini-batches (evaluated at the
// evolving weights, i.e. the usual "training loss" curve), the validation
// RMSE after the epoch, the learning rate in effect (changes across
// divergence retries), the gradient L2 norm at the epoch's last batch
// (read before the Adam step zeroes the accumulators) and the epoch's wall
// time.
type EpochStat struct {
	Epoch     int
	TrainRMSE float64
	ValRMSE   float64
	LR        float64
	GradNorm  float64
	Duration  time.Duration
}

// TrainReport summarizes a training run.
type TrainReport struct {
	Epochs    int
	TrainRMSE float64
	ValRMSE   float64
	Duration  time.Duration
	// EpochStats holds one entry per epoch actually run, across all
	// divergence retries (Epoch numbers keep counting through rollbacks).
	EpochStats []EpochStat
	// Retries counts divergence recoveries: the loop restored the best
	// (or initial) weights and restarted Adam at a backed-off LR.
	Retries int
	// Diverged reports that the final attempt still ended in a
	// non-finite or exploding loss (the returned weights are the best
	// seen, which may be the initialization).
	Diverged bool
	// Fallback reports that a resilient wrapper swapped in its fallback
	// predictor (see Resilient).
	Fallback bool
}

// String implements fmt.Stringer.
func (r TrainReport) String() string {
	s := fmt.Sprintf("epochs=%d train=%.4f val=%.4f in %v", r.Epochs, r.TrainRMSE, r.ValRMSE, r.Duration)
	if r.Retries > 0 {
		s += fmt.Sprintf(" retries=%d", r.Retries)
	}
	if r.Diverged {
		s += " DIVERGED"
	}
	if r.Fallback {
		s += " FALLBACK"
	}
	return s
}

// ValidWindow reports whether a window is usable for training or scoring:
// all inputs and targets finite. Degraded traces that bypassed repair
// produce NaN-poisoned windows; one such window would corrupt every
// gradient (training) or the pooled RMSE (evaluation).
func ValidWindow(w trace.Window) bool {
	for _, v := range w.AggHist {
		if !finite(v) {
			return false
		}
	}
	for _, v := range w.Y {
		if !finite(v) {
			return false
		}
	}
	for c := range w.X {
		for t := range w.X[c] {
			for _, v := range w.X[c][t] {
				if !finite(v) {
					return false
				}
			}
		}
	}
	return true
}

// FilterValid splits windows into usable ones and a count of rejects.
func FilterValid(ws []trace.Window) (valid []trace.Window, skipped int) {
	valid = ws[:0:0]
	for _, w := range ws {
		if ValidWindow(w) {
			valid = append(valid, w)
		} else {
			skipped++
		}
	}
	return valid, skipped
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Evaluate computes the RMSE of a predictor over windows, pooling every
// horizon step (the paper's Table 4 metric, in scaled units). Windows with
// non-finite inputs or targets are skipped rather than letting one
// corrupted sample turn the whole metric into NaN; use EvaluateSkipping to
// learn how many were dropped.
func Evaluate(p Predictor, ws []trace.Window) float64 {
	rmse, _ := EvaluateSkipping(p, ws)
	return rmse
}

// EvaluateSkipping is Evaluate returning the count of skipped invalid
// windows alongside the RMSE over the valid ones.
func EvaluateSkipping(p Predictor, ws []trace.Window) (rmse float64, skipped int) {
	var preds, truths []float64
	for _, w := range ws {
		if !ValidWindow(w) {
			skipped++
			continue
		}
		y := p.Predict(w)
		if preds == nil {
			// Size once off the first horizon; avoids append regrowth.
			preds = make([]float64, 0, len(ws)*len(y))
			truths = make([]float64, 0, len(ws)*len(y))
		}
		preds = append(preds, y...)
		truths = append(truths, w.Y...)
	}
	return stats.RMSE(preds, truths), skipped
}

// AggFeatureDim is the per-step feature dimension the CA-blind baselines
// consume: the aggregate throughput history plus the serving (primary)
// cell's radio-quality features. Crucially it contains neither per-CC
// decomposition, nor the RRC event channel, nor the CC count — prior work
// [28, 9, 32] predicts overall throughput from exactly this kind of
// serving-cell view, which is the gap Prism5G exploits.
const AggFeatureDim = 9

// AggFeatures extracts the baseline feature sequence [T][AggFeatureDim]
// from a window.
func AggFeatures(w trace.Window) [][]float64 {
	T := len(w.AggHist)
	flat := make([]float64, T*AggFeatureDim)
	out := make([][]float64, T)
	for t := 0; t < T; t++ {
		out[t] = flat[t*AggFeatureDim : (t+1)*AggFeatureDim]
		fillAggFeatures(out[t], w, t)
	}
	return out
}

// aggFeaturesInto is AggFeatures drawing the sequence from an arena so hot
// paths build it without allocating.
func aggFeaturesInto(ar *nn.Arena, w trace.Window) [][]float64 {
	T := len(w.AggHist)
	out := ar.Rows(T)
	flat := ar.Floats(T * AggFeatureDim)
	for t := 0; t < T; t++ {
		out[t] = flat[t*AggFeatureDim : (t+1)*AggFeatureDim]
		fillAggFeatures(out[t], w, t)
	}
	return out
}

// fillAggFeatures writes step t's AggFeatureDim features into row.
func fillAggFeatures(row []float64, w trace.Window, t int) {
	pc := w.X[0][t] // PCell slot
	row[0] = w.AggHist[t]
	row[1] = pc[trace.FRSRP]
	row[2] = pc[trace.FRSRQ]
	row[3] = pc[trace.FSINR]
	row[4] = pc[trace.FCQI]
	row[5] = pc[trace.FBLER]
	row[6] = pc[trace.FRB]
	row[7] = pc[trace.FLayers]
	row[8] = pc[trace.FMCS]
}

// FlattenAggFeatures returns the [T*AggFeatureDim] vector the tree-based
// baselines consume (the paper's R^(T,k) -> R^(T*k,1) reshaping).
func FlattenAggFeatures(w trace.Window) []float64 {
	seq := AggFeatures(w)
	out := make([]float64, 0, len(seq)*AggFeatureDim)
	for _, row := range seq {
		out = append(out, row...)
	}
	return out
}

// TrainOpts configures neural-network training.
type TrainOpts struct {
	Epochs   int
	Batch    int
	LR       float64
	Patience int // early-stop after this many non-improving epochs
	Seed     uint64
}

// Divergence recovery in the training loop: an epoch diverges when its
// validation loss is non-finite or exceeds divergeFactor times the best
// seen so far. The loop then rolls back to the best (or initial) weights,
// multiplies the learning rate by lrBackoff and restarts the optimizer, at
// most maxRetries times.
const (
	maxRetries    = 2
	lrBackoff     = 0.5
	divergeFactor = 50
)

// DefaultTrainOpts mirrors the paper's setup (Adam lr 0.01, batch 128, max
// 200 epochs) with early stopping.
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{Epochs: 200, Batch: 128, LR: 0.01, Patience: 12, Seed: 1}
}

// SeqModel is the minimal contract the shared training loop needs. It is
// implemented by the neural baselines here and by Prism5G in internal/core.
type SeqModel interface {
	Params() []*nn.Param
	// ForwardBackward runs one example; when gScale > 0 it also
	// backpropagates MSE loss scaled by gScale. It returns the
	// prediction.
	ForwardBackward(w trace.Window, gScale float64) []float64
}

// BatchSeqModel is a SeqModel with a whole-minibatch path. The training
// loop uses it when available: the batch runs through blocked batched-GEMM
// kernels instead of one GEMV per sample. Implementations must keep results
// bit-identical to len(ws) successive ForwardBackward calls (same forward
// values, parameter-gradient contributions accumulated in ascending sample
// order) so training trajectories do not depend on which path ran. The
// returned predictions may be views into model scratch, valid until the
// next call; the method is not safe for concurrent use.
type BatchSeqModel interface {
	SeqModel
	ForwardBackwardBatch(ws []trace.Window, gScale float64) [][]float64
}

// TrainLoop runs mini-batch Adam training with early stopping on val RMSE,
// restoring the best-seen weights (the paper reports the model selected on
// validation performance).
//
// The loop is divergence-hardened: windows with non-finite inputs or
// targets are filtered up front, and when an epoch ends in a NaN/Inf or
// exploding loss the loop rolls back to the best (or initial) weights,
// restarts Adam at lrBackoff times the rate and tries again, at most
// maxRetries times. Degraded field data makes both failure modes routine
// rather than exceptional.
//
// Each epoch reshuffles the previous epoch's order of the training set;
// the permutation persists across epochs and retries.
func TrainLoop(m SeqModel, train, val []trace.Window, opts TrainOpts) TrainReport {
	rep, _ := trainLoop(m, newSliceSource(train), newSliceSource(val), opts)
	return rep
}

// windowSource feeds trainLoop one pass over a window set at a time.
type windowSource interface {
	// start begins a pass in minibatches of batch windows, shuffled with
	// src, or in set order when src is nil.
	start(batch int, src *rng.Source) error
	// next returns the pass's next minibatch of valid windows, or an empty
	// one once the pass is over.
	next() ([]trace.Window, error)
}

// sliceSource is a materialized window set, filtered once. Its order
// persists: each shuffled pass permutes the previous pass's order.
type sliceSource struct {
	ws         []trace.Window
	order      []int
	batch, pos int
	shuffled   bool
	buf        []trace.Window // the gathered shuffled minibatch
}

func newSliceSource(ws []trace.Window) *sliceSource {
	ws, _ = FilterValid(ws)
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	return &sliceSource{ws: ws, order: order}
}

func (s *sliceSource) start(batch int, src *rng.Source) error {
	s.batch, s.pos, s.shuffled = batch, 0, src != nil
	if src != nil {
		src.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	}
	return nil
}

func (s *sliceSource) next() ([]trace.Window, error) {
	end := min(s.pos+s.batch, len(s.ws))
	b := s.ws[s.pos:end]
	if s.shuffled {
		s.buf = s.buf[:0]
		for _, i := range s.order[s.pos:end] {
			s.buf = append(s.buf, s.ws[i])
		}
		b = s.buf
	}
	s.pos = end
	return b, nil
}

// sqErr sums squared errors in one running total per pass, window by
// window in order. Per-batch partial sums would move the RMSE's last bits,
// and with them early stopping.
type sqErr struct {
	sum float64
	n   int
}

func (e *sqErr) add(y, truth []float64) {
	for i := range y {
		d := y[i] - truth[i]
		e.sum += d * d
		e.n++
	}
}

// rmse is NaN for an empty pass.
func (e *sqErr) rmse() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	return math.Sqrt(e.sum / float64(e.n))
}

// forward runs one minibatch through m, backpropagating the MSE loss
// scaled by gScale when gScale > 0, and adds the squared errors to se. It
// is the one place that chooses a BatchSeqModel's batched path over
// ForwardBackward window by window.
func forward(m SeqModel, b []trace.Window, gScale float64, se *sqErr) {
	if bm, ok := m.(BatchSeqModel); ok {
		for k, y := range bm.ForwardBackwardBatch(b, gScale) {
			se.add(y, b[k].Y)
		}
		return
	}
	for _, w := range b {
		se.add(m.ForwardBackward(w, gScale), w.Y)
	}
}

// evalPass returns m's RMSE over one in-order, forward-only pass of s.
func evalPass(m SeqModel, s windowSource, batch int) (float64, error) {
	if err := s.start(batch, nil); err != nil {
		return math.NaN(), err
	}
	var se sqErr
	for {
		b, err := s.next()
		if err != nil {
			return math.NaN(), err
		}
		if len(b) == 0 {
			return se.rmse(), nil
		}
		forward(m, b, 0, &se)
	}
}

// trainLoop is the one training loop behind TrainLoop and TrainLoopStream.
// A source error aborts training; it is returned with the best-so-far
// report and the best (or initial) weights restored.
func trainLoop(m SeqModel, train, val windowSource, opts TrainOpts) (TrainReport, error) {
	if opts.Epochs == 0 {
		opts = DefaultTrainOpts()
	}
	if opts.Batch <= 0 {
		opts.Batch = 128
	}
	start := time.Now()
	sp := obs.StartSpan("train.loop")
	ps := m.Params()
	src := rng.New(opts.Seed ^ 0xfeed)
	initW := snapshotInto(nil, ps)
	bestVal := math.Inf(1)
	var bestW [][]float64
	var epochStats []EpochStat
	epochs, retries := 0, 0
	diverged := false
	lr := opts.LR
	var err error
attempts:
	for attempt := 0; ; attempt++ {
		opt := nn.NewAdam(ps, lr)
		badEpochs := 0
		diverged = false
		for ep := 0; ep < opts.Epochs; ep++ {
			epochs++
			epStart := time.Now()
			if err = train.start(opts.Batch, src); err != nil {
				break attempts
			}
			var se sqErr
			seen := 0 // training windows this epoch
			gradN := math.NaN()
			for {
				var b []trace.Window
				if b, err = train.next(); err != nil {
					break attempts
				}
				if len(b) == 0 {
					break
				}
				seen += len(b)
				forward(m, b, 1/float64(len(b)), &se)
				// Read the norm before Step zeroes the accumulators; the
				// epoch reports its last batch's.
				gradN = gradNorm(ps)
				opt.Step()
			}
			var v float64
			if v, err = evalPass(m, val, opts.Batch); err != nil {
				break attempts
			}
			if math.IsNaN(v) && seen > 0 {
				if v, err = evalPass(m, train, opts.Batch); err != nil {
					break attempts
				}
			}
			es := EpochStat{Epoch: epochs, TrainRMSE: se.rmse(), ValRMSE: v,
				LR: lr, GradNorm: gradN, Duration: time.Since(epStart)}
			epochStats = append(epochStats, es)
			if r := obs.Default(); r.Enabled() {
				r.Add("train.epochs", 1)
				r.Observe("train.epoch_s", es.Duration.Seconds())
				r.Emit("train.epoch", map[string]any{
					"epoch": es.Epoch, "train_rmse": es.TrainRMSE, "val_rmse": es.ValRMSE,
					"lr": es.LR, "grad_norm": es.GradNorm, "dur_s": es.Duration.Seconds(),
				})
			}
			if seen > 0 && (!finite(v) || (finite(bestVal) && v > divergeFactor*bestVal)) {
				diverged = true
				break
			}
			if v < bestVal-1e-6 {
				bestVal = v
				bestW = snapshotInto(bestW, ps)
				badEpochs = 0
			} else {
				badEpochs++
				if badEpochs >= opts.Patience {
					break
				}
			}
		}
		if !diverged || retries >= maxRetries {
			break
		}
		// Roll back to the last known-good weights (the initialization if
		// training never produced a finite loss) and back off the LR.
		retries++
		if bestW != nil {
			restore(ps, bestW)
		} else {
			restore(ps, initW)
		}
		lr *= lrBackoff
		if r := obs.Default(); r.Enabled() {
			r.Add("train.rollbacks", 1)
			r.Emit("train.rollback", map[string]any{
				"attempt": attempt + 1, "next_lr": lr, "best_val": bestVal,
			})
		}
	}
	if bestW != nil {
		restore(ps, bestW)
	} else if diverged || err != nil {
		// Never saw a finite loss: the initialization is still the best
		// known state, and at least its forward pass is finite.
		restore(ps, initW)
	}
	trainRMSE := math.NaN()
	if err == nil {
		trainRMSE, err = evalPass(m, train, opts.Batch)
	}
	sp.EndWith(map[string]any{"epochs": epochs, "retries": retries,
		"diverged": diverged, "stream_err": err != nil})
	return TrainReport{
		Epochs:     epochs,
		TrainRMSE:  trainRMSE,
		ValRMSE:    bestVal,
		Duration:   time.Since(start),
		EpochStats: epochStats,
		Retries:    retries,
		Diverged:   diverged,
	}, err
}

// gradNorm returns the L2 norm over every parameter gradient accumulator.
func gradNorm(ps []*nn.Param) float64 {
	var s float64
	for _, p := range ps {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// snapshotInto copies the weights into dst, reusing its buffers when the
// shapes still match (they always do within one training run).
func snapshotInto(dst [][]float64, ps []*nn.Param) [][]float64 {
	if len(dst) != len(ps) {
		dst = make([][]float64, len(ps))
	}
	for i, p := range ps {
		if len(dst[i]) != p.Size() {
			dst[i] = make([]float64, p.Size())
		}
		copy(dst[i], p.W)
	}
	return dst
}

func restore(ps []*nn.Param, w [][]float64) {
	for i, p := range ps {
		copy(p.W, w[i])
	}
}
