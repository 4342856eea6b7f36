// Package core implements Prism5G, the paper's CA-aware deep-learning
// framework for 4G/5G throughput prediction (§5). The model follows the
// three design principles of Fig 16:
//
//  1. Per-CC modeling (blue): a weights-shared RNN consumes each component
//     carrier's feature sequence separately: h_c = RNN_θ1(X_c). The
//     carriers run as the lanes of one RNN pass, each lane its own
//     sequence.
//  2. CA event monitoring (green): RRC signaling is translated into a binary
//     mask I that gates the per-CC inputs (X'_c = X_c ⊙ I) and, through an
//     embedding layer, provides the fusion module with channel-combination
//     context E.
//  3. Fusion learning (orange): h_f = Fusion_θ2([h_1..h_C, E]) captures the
//     interplay among carriers; each carrier's state becomes h'_c = h_c +
//     h_f.
//
// A weights-shared MLP head predicts each carrier's future throughput and
// the aggregate is their sum: y_pred = Σ_c MLP_θ3(h'_c). All modules are
// trained jointly by minimizing prediction error.
//
// The NoState and NoFusion constructors build the paper's Table 13
// ablations; Options.Backbone and Options.SharedWeights build the
// design-choice ablations (a GRU backbone, one RNN per carrier slot).
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"prism5g/internal/nn"
	"prism5g/internal/par"
	"prism5g/internal/predictors"
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// Options configures Prism5G.
type Options struct {
	// Hidden is the RNN/MLP width (paper: 128; smaller works well at
	// these dataset sizes and trains much faster).
	Hidden int
	// Horizon is the output sequence length (paper: 10).
	Horizon int
	// UseState enables the CA event mask gating + embedding ("state
	// trigger mechanism"); disabled in the NoState ablation.
	UseState bool
	// UseFusion enables the fusion module; disabled in the NoFusion
	// ablation.
	UseFusion bool
	// Backbone selects the per-CC RNN: "lstm" (paper default; "" means
	// the same) or "gru". The paper notes the RNN module is configurable.
	Backbone string
	// SharedWeights shares one RNN across carriers (the paper's design,
	// which cuts parameters and pools training signal); false gives each
	// carrier slot its own RNN (an ablation).
	SharedWeights bool
	// Train configures the optimizer.
	Train predictors.TrainOpts
}

// perCCLossWeight weights the auxiliary per-carrier supervision (Fig 33/34
// show Prism5G models each cell well; the auxiliary loss is what trains
// the per-CC heads to decompose the aggregate).
const perCCLossWeight = 0.5

// DefaultOptions mirrors the paper's setup at a tractable width.
func DefaultOptions() Options {
	return Options{
		Hidden:        32,
		Horizon:       10,
		UseState:      true,
		UseFusion:     true,
		Backbone:      "lstm",
		SharedWeights: true,
		Train:         predictors.DefaultTrainOpts(),
	}
}

// prismScratch bundles every reusable buffer of one forward/backward pass:
// one backbone tape per backbone instance, the fusion and head MLP tapes,
// and a bump arena for the glue vectors. Kept in a sync.Pool so concurrent
// Predict calls (the serving path) and ForwardBackwardBatch's workers each
// grab their own.
type prismScratch struct {
	lstm   [trace.MaxCC]nn.LSTMTape
	gru    [trace.MaxCC]nn.GRUTape
	ftape  nn.MLPTape
	htapes [trace.MaxCC]nn.MLPTape
	ar     nn.Arena
}

// Prism5G is the CA-aware throughput predictor.
type Prism5G struct {
	Opts Options

	// lstm or gru (the other is empty) holds θ1, the per-CC backbone: one
	// instance shared by every carrier (the paper's weight sharing) or one
	// per carrier slot. Each instance runs its carriers as the lanes of one
	// pass.
	lstm   []*nn.LSTM
	gru    []*nn.GRU
	embed  *nn.Dense // mask (C*T) -> Hidden
	fusion *nn.MLP   // (C*Hidden + Hidden) -> Hidden, θ2
	head   *nn.MLP   // Hidden -> Horizon, shared θ3
	histT  int       // history length T, fixed by New (embed reads C*T)

	pool sync.Pool // *prismScratch

	// ForwardBackwardBatch's predictions (Horizon values per window, and
	// one view per window) and its gradient logs, which the scratch pool
	// Predict draws from never holds.
	ys   []float64
	rows [][]float64
	logs sync.Pool // *nn.GradLog
}

// New builds a Prism5G model with history length T (the embedding layer's
// input size depends on it). An empty Backbone means "lstm"; any other
// name but "gru" panics, as a misspelt backbone would otherwise train the
// default model.
func New(opts Options, historyT int) *Prism5G {
	switch opts.Backbone {
	case "":
		opts.Backbone = "lstm"
	case "lstm", "gru":
	default:
		panic(fmt.Sprintf("core: unknown backbone %q (known: lstm, gru)", opts.Backbone))
	}
	src := rng.New(opts.Train.Seed ^ 0x9515)
	h := opts.Hidden
	p := &Prism5G{Opts: opts, histT: historyT}
	p.pool.New = func() any { return &prismScratch{} }
	p.logs.New = func() any { return &nn.GradLog{} }
	instances := 1
	if !opts.SharedWeights {
		instances = trace.MaxCC
	}
	for i := 0; i < instances; i++ {
		name := fmt.Sprintf("prism.rnn%d", i)
		switch opts.Backbone {
		case "gru":
			p.gru = append(p.gru, nn.NewGRU(name, trace.NumCCFeatures, h, src))
		default:
			p.lstm = append(p.lstm, nn.NewLSTM(name, trace.NumCCFeatures, h, src))
		}
	}
	p.embed = nn.NewDense("prism.embed", trace.MaxCC*historyT, h, src)
	p.fusion = nn.NewMLP("prism.fusion", []int{trace.MaxCC*h + h, h, h}, src)
	p.head = nn.NewMLP("prism.head", []int{h, h, opts.Horizon}, src)
	return p
}

// NewNoState builds the Table 13 "No State" ablation: no mask gating, no
// embedding context.
func NewNoState(opts Options, historyT int) *Prism5G {
	opts.UseState = false
	return New(opts, historyT)
}

// NewNoFusion builds the Table 13 "No Fusion" ablation.
func NewNoFusion(opts Options, historyT int) *Prism5G {
	opts.UseFusion = false
	return New(opts, historyT)
}

// Name implements predictors.Predictor.
func (p *Prism5G) Name() string {
	switch {
	case !p.Opts.UseState:
		return "Prism5G-NoState"
	case !p.Opts.UseFusion:
		return "Prism5G-NoFusion"
	case p.Opts.Backbone == "gru":
		return "Prism5G-GRU"
	case !p.Opts.SharedWeights:
		return "Prism5G-Unshared"
	default:
		return "Prism5G"
	}
}

// Params implements nn.Module.
func (p *Prism5G) Params() []*nn.Param {
	var ps []*nn.Param
	for _, m := range p.lstm {
		ps = append(ps, m.Params()...)
	}
	for _, m := range p.gru {
		ps = append(ps, m.Params()...)
	}
	if p.Opts.UseState {
		ps = append(ps, p.embed.Params()...)
	}
	if p.Opts.UseFusion {
		ps = append(ps, p.fusion.Params()...)
	}
	return append(ps, p.head.Params()...)
}

// gate returns the state-trigger value for carrier c at step t: active, or
// signaled by a recent RRC event (the event channel leads activation, which
// is what lets the model react at transitions before throughput moves).
func gate(w trace.Window, c, t int) float64 {
	if f := w.Feat(c, t); f[trace.FActive] > 0 || f[trace.FEvent] != 0 {
		return 1
	}
	return 0
}

// forward runs the model on one window on pooled scratch, as pass does
// with no log, and returns the aggregate prediction: the one freshly
// allocated value (callers may hold or mutate it).
func (p *Prism5G) forward(w trace.Window, gScale float64, perCC [][]float64) []float64 {
	s := p.pool.Get().(*prismScratch)
	ypred := make([]float64, p.Opts.Horizon)
	p.pass(s, w, gScale, ypred, perCC, nil)
	p.pool.Put(s)
	return ypred
}

// pass runs the model on one window with the scratch s, adding the
// aggregate prediction into ypred (Horizon values, zero on entry). When
// backprop is requested (gScale > 0) it performs the full joint backward
// pass including the auxiliary per-CC loss; the parameter-gradient rows go
// to log, or straight to the gradients when log is nil (see nn.GradLog). A
// non-nil perCC receives each carrier head's forecast (MaxCC rows of
// Horizon values).
func (p *Prism5G) pass(s *prismScratch, w trace.Window, gScale float64, ypred []float64, perCC [][]float64, log *nn.GradLog) {
	C := trace.MaxCC
	T := p.histT
	H := p.Opts.Hidden
	F := trace.NumCCFeatures
	s.ar.Reset()

	// --- Per-CC inputs with state gating: a gated-off step reads zeros ---
	maskFlat := s.ar.Floats(C * T)
	for c := 0; c < C; c++ {
		for t := 0; t < T; t++ {
			maskFlat[c*T+t] = gate(w, c, t)
		}
	}
	gatedOff := func(c, t int) bool { return p.Opts.UseState && maskFlat[c*T+t] == 0 }

	// --- θ1: each backbone instance runs its L carriers as L lanes ---
	// Instance i takes carriers i*L..i*L+L-1 from one input block laid out
	// instance-major, then step-major: carrier i*L+l reads step t at
	// X[i*T*L*F + (t*L+l)*F], and a gated-off step reads zeros.
	instances := len(p.lstm) + len(p.gru)
	L := C / instances
	X := s.ar.Floats(C * T * F)
	for c := 0; c < C; c++ {
		i, l := c/L, c%L
		for t := 0; t < T; t++ {
			if !gatedOff(c, t) {
				o := i*T*L*F + (t*L+l)*F
				copy(X[o:o+F], w.Feat(c, t))
			}
		}
	}
	hcs := s.ar.Rows(C)
	for i := 0; i < instances; i++ {
		Xi := X[i*T*L*F : (i+1)*T*L*F]
		var last []float64
		if p.gru != nil {
			last = p.gru[i].ForwardBatch(&s.gru[i], Xi, L, T)
		} else {
			last = p.lstm[i].ForwardBatch(&s.lstm[i], Xi, L, T)
		}
		for l := 0; l < L; l++ {
			hcs[i*L+l] = last[l*H : (l+1)*H]
		}
	}

	// --- Embedding + fusion ---
	var emb []float64
	var fin []float64
	hf := s.ar.Floats(H)
	if p.Opts.UseFusion {
		fin = s.ar.Floats(C*H + H)
		for c := 0; c < C; c++ {
			copy(fin[c*H:(c+1)*H], hcs[c])
		}
		if p.Opts.UseState {
			emb = p.embed.ForwardInto(s.ar.Floats(H), maskFlat)
		} else {
			emb = s.ar.Floats(H)
		}
		copy(fin[C*H:], emb)
		hf = p.fusion.ForwardTape(&s.ftape, fin)
	}

	// --- Per-CC heads and aggregate ---
	hPrimes := s.ar.Matrix(C, H)
	ycs := s.ar.Rows(C)
	for c := 0; c < C; c++ {
		hp := hPrimes[c]
		for i := 0; i < H; i++ {
			hp[i] = hcs[c][i] + hf[i]
		}
		ycs[c] = p.head.ForwardTape(&s.htapes[c], hp)
		for h := 0; h < p.Opts.Horizon; h++ {
			ypred[h] += ycs[c][h]
		}
		if perCC != nil {
			copy(perCC[c], ycs[c])
		}
	}
	if gScale <= 0 {
		return
	}

	// --- Backward ---
	// Aggregate loss gradient reaches every head equally; auxiliary
	// per-CC loss adds a direct term.
	gAgg := nn.MSEGradInto(s.ar.Floats(p.Opts.Horizon), ypred, w.Y())
	ghf := s.ar.Floats(H)
	ghLast := s.ar.Floats(C * H) // dL/dh_c, carrier after carrier
	gyc := s.ar.Floats(p.Opts.Horizon)
	gaux := s.ar.Floats(p.Opts.Horizon)
	for c := 0; c < C; c++ {
		for h := 0; h < p.Opts.Horizon; h++ {
			gyc[h] = gAgg[h] * gScale
		}
		nn.MSEGradInto(gaux, ycs[c], w.YPerCC(c))
		for h := range gyc {
			gyc[h] += perCCLossWeight * gScale * gaux[h] / float64(C)
		}
		ghp := p.head.Backward(&s.htapes[c], gyc, log)
		copy(ghLast[c*H:(c+1)*H], ghp)
		for i := 0; i < H; i++ {
			ghf[i] += ghp[i]
		}
	}
	if p.Opts.UseFusion {
		gfin := p.fusion.Backward(&s.ftape, ghf, log)
		for i := 0; i < C*H; i++ {
			ghLast[i] += gfin[i]
		}
		if p.Opts.UseState {
			gemb := gfin[C*H : C*H+H]
			p.embed.BackwardBatch(nil, maskFlat, gemb, 1, log) // nothing reads the mask's gradient
		}
	}
	for i := 0; i < instances; i++ {
		gLast := ghLast[i*L*H : (i+1)*L*H]
		if p.gru != nil {
			p.gru[i].BackwardBatch(&s.gru[i], gLast, log)
		} else {
			p.lstm[i].BackwardBatch(&s.lstm[i], gLast, log)
		}
	}
}

// ForwardBackward implements predictors.SeqModel.
func (p *Prism5G) ForwardBackward(w trace.Window, gScale float64) []float64 {
	return p.forward(w, gScale, nil)
}

// chunkWindows is how many windows a ForwardBackwardBatch chunk holds. A
// chunk's log holds its rows from produce to commit: at Hidden 32 a window
// logs about 62 KB with the LSTM backbone and 113 KB with the GRU, so a
// log stays under 0.5 MB. Chunks of 4 trained the server's bootstrap a
// little faster on two cores than chunks of 8 or 16.
const chunkWindows = 4

// ForwardBackwardBatch implements predictors.BatchSeqModel. It runs the
// windows in chunks of chunkWindows through par.OrderedStream on
// GOMAXPROCS workers while the caller waits; the predictions do not depend
// on the worker count. Producing a chunk runs its windows one by one,
// logging their parameter-gradient rows into a log of its own; consuming
// it commits the log. OrderedStream consumes in chunk order, one at a
// time, so every gradient element receives its adds in window order, as
// from len(ws) successive ForwardBackward calls, and the gradients are
// bit-identical at any worker count. A panic in a chunk stops the batch
// and is raised again on the caller's goroutine, as if the windows had run
// there. The returned predictions are views into model scratch, valid
// until the next call; not safe for concurrent use.
func (p *Prism5G) ForwardBackwardBatch(ws []trace.Window, gScale float64) [][]float64 {
	if len(ws) == 0 {
		return nil
	}
	hz := p.Opts.Horizon
	if cap(p.ys) < len(ws)*hz {
		p.ys = make([]float64, len(ws)*hz)
	}
	p.rows = p.rows[:0]
	for i := range ws {
		p.rows = append(p.rows, p.ys[i*hz:(i+1)*hz:(i+1)*hz])
	}
	chunks := (len(ws) + chunkWindows - 1) / chunkWindows
	err := par.OrderedStream(context.Background(), chunks, runtime.GOMAXPROCS(0),
		func(c int) (*nn.GradLog, error) {
			s := p.pool.Get().(*prismScratch)
			log := p.logs.Get().(*nn.GradLog)
			for i := c * chunkWindows; i < min((c+1)*chunkWindows, len(ws)); i++ {
				clear(p.rows[i])
				p.pass(s, ws[i], gScale, p.rows[i], nil, log)
			}
			p.pool.Put(s)
			return log, nil
		},
		func(_ int, log *nn.GradLog) error {
			log.Commit()
			p.logs.Put(log)
			return nil
		})
	if pe, ok := err.(*par.PanicError); ok {
		panic(pe.Value) // the logs of chunks run but not committed are dropped
	}
	return p.rows
}

// Train implements predictors.Predictor.
func (p *Prism5G) Train(train, val []trace.Window) predictors.TrainReport {
	return predictors.TrainLoop(p, train, val, p.Opts.Train)
}

// Predict implements predictors.Predictor.
func (p *Prism5G) Predict(w trace.Window) []float64 {
	return p.forward(w, 0, nil)
}

// PredictPerCC returns the per-carrier horizon forecasts (scaled), the
// decomposition shown in the paper's Fig 33/34. Their sum, carrier by
// carrier from zero, is Predict's aggregate.
func (p *Prism5G) PredictPerCC(w trace.Window) [][]float64 {
	out := make([][]float64, trace.MaxCC)
	for c := range out {
		out[c] = make([]float64, p.Opts.Horizon)
	}
	p.forward(w, 0, out)
	return out
}
