// Package core implements Prism5G, the paper's CA-aware deep-learning
// framework for 4G/5G throughput prediction (§5). The model follows the
// three design principles of Fig 16:
//
//  1. Per-CC modeling (blue): a weights-shared RNN consumes each component
//     carrier's feature sequence separately: h_c = RNN_θ1(X_c).
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
// The NoState and NoFusion constructors build the paper's Table 13 ablations.
package core

import (
	"fmt"
	"sync"

	"prism5g/internal/nn"
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
	// PerCCLossWeight weights the auxiliary per-carrier supervision
	// (Fig 33/34 show Prism5G models each cell well; the auxiliary loss
	// is what trains the per-CC heads to decompose the aggregate).
	PerCCLossWeight float64
	// Backbone selects the per-CC RNN: "lstm" (paper default) or "gru".
	// The paper notes the RNN module is configurable.
	Backbone string
	// SharedWeights shares one RNN across carriers (the paper's design,
	// which cuts parameters and pools training signal); false gives each
	// carrier slot its own RNN (an ablation).
	SharedWeights bool
	// Train configures the optimizer.
	Train predictors.TrainOpts
}

// DefaultOptions mirrors the paper's setup at a tractable width.
func DefaultOptions() Options {
	return Options{
		Hidden:          32,
		Horizon:         10,
		UseState:        true,
		UseFusion:       true,
		PerCCLossWeight: 0.5,
		Backbone:        "lstm",
		SharedWeights:   true,
		Train:           predictors.DefaultTrainOpts(),
	}
}

// rnnScratch holds one carrier slot's reusable backbone tape for the
// backbones that run carrier by carrier (GRU, per-slot weights): every
// carrier records its own forward pass.
type rnnScratch struct {
	lstm nn.LSTMTape
	gru  nn.GRUTape
	gh   [][]float64 // hidden-grad spine for the GRU's backward closure
}

func (s *rnnScratch) ghSpine(T int) [][]float64 {
	if cap(s.gh) < T {
		s.gh = make([][]float64, T)
	}
	gh := s.gh[:T]
	for i := range gh {
		gh[i] = nil
	}
	return gh
}

// rnn abstracts the per-CC recurrent backbone so LSTM and GRU are
// interchangeable: forward returns the final hidden state and a backward
// closure that consumes dL/dh_last.
type rnn interface {
	Params() []*nn.Param
	run(s *rnnScratch, seq [][]float64) (last []float64, backward func(gLast []float64))
}

type lstmBackbone struct{ m *nn.LSTM }

func (b lstmBackbone) Params() []*nn.Param { return b.m.Params() }
func (b lstmBackbone) run(s *rnnScratch, seq [][]float64) ([]float64, func([]float64)) {
	hs := b.m.ForwardTape(&s.lstm, seq, nil, nil)
	return hs[len(hs)-1], func(g []float64) { b.m.BackwardBatch(&s.lstm, g) }
}

type gruBackbone struct{ m *nn.GRU }

func (b gruBackbone) Params() []*nn.Param { return b.m.Params() }
func (b gruBackbone) run(s *rnnScratch, seq [][]float64) ([]float64, func([]float64)) {
	hs := b.m.ForwardTape(&s.gru, seq)
	last := hs[len(hs)-1]
	return last, func(g []float64) {
		gh := s.ghSpine(len(hs))
		gh[len(hs)-1] = g
		b.m.Backward(&s.gru, gh)
	}
}

// prismScratch bundles every reusable buffer of one forward/backward pass:
// the shared LSTM's batch tape or the per-carrier backbone tapes, fusion
// and head MLP tapes, and a bump arena for the glue vectors. Kept in a
// sync.Pool so concurrent Predict calls (the serving path) each grab their
// own.
type prismScratch struct {
	batch  nn.LSTMTape
	rnns   [trace.MaxCC]rnnScratch
	ftape  nn.MLPTape
	htapes [trace.MaxCC]nn.MLPTape
	ar     nn.Arena
}

// zeroFeat is the shared gated-off input row: read-only zeros.
var zeroFeat = make([]float64, trace.NumCCFeatures)

// Prism5G is the CA-aware throughput predictor.
type Prism5G struct {
	Opts Options

	// rnns holds the per-CC backbones: one entry shared across carriers
	// (the paper's θ1 weight sharing) or MaxCC independent ones.
	rnns   []rnn
	embed  *nn.Dense // mask (C*T) -> Hidden
	fusion *nn.MLP   // (C*Hidden + Hidden) -> Hidden, θ2
	head   *nn.MLP   // Hidden -> Horizon, shared θ3
	histT  int       // history length T, fixed by New (embed reads C*T)

	pool sync.Pool // *prismScratch
}

// New builds a Prism5G model with history length T (the embedding layer's
// input size depends on it).
func New(opts Options, historyT int) *Prism5G {
	if opts.Backbone == "" {
		opts.Backbone = "lstm"
	}
	src := rng.New(opts.Train.Seed ^ 0x9515)
	h := opts.Hidden
	p := &Prism5G{Opts: opts, histT: historyT}
	p.pool.New = func() any { return &prismScratch{} }
	numRNNs := 1
	if !opts.SharedWeights {
		numRNNs = trace.MaxCC
	}
	for i := 0; i < numRNNs; i++ {
		name := fmt.Sprintf("prism.rnn%d", i)
		switch opts.Backbone {
		case "gru":
			p.rnns = append(p.rnns, gruBackbone{nn.NewGRU(name, trace.NumCCFeatures, h, src)})
		default:
			p.rnns = append(p.rnns, lstmBackbone{nn.NewLSTM(name, trace.NumCCFeatures, h, src)})
		}
	}
	p.embed = nn.NewDense("prism.embed", trace.MaxCC*historyT, h, src)
	p.fusion = nn.NewMLP("prism.fusion", []int{trace.MaxCC*h + h, h, h}, src)
	p.head = nn.NewMLP("prism.head", []int{h, h, opts.Horizon}, src)
	return p
}

// rnnFor returns the backbone serving carrier slot c.
func (p *Prism5G) rnnFor(c int) rnn {
	if len(p.rnns) == 1 {
		return p.rnns[0]
	}
	return p.rnns[c]
}

// batched returns the LSTM every carrier shares (the paper's θ1, and the
// default): one weight set over MaxCC sequences, which then run as one
// batch. It is nil for the GRU backbone and for per-slot weights, whose
// carriers run one by one.
func (p *Prism5G) batched() *nn.LSTM {
	if b, ok := p.rnns[0].(lstmBackbone); ok && len(p.rnns) == 1 {
		return b.m
	}
	return nil
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
	default:
		return "Prism5G"
	}
}

// Params implements nn.Module.
func (p *Prism5G) Params() []*nn.Param {
	var ps []*nn.Param
	for _, r := range p.rnns {
		ps = append(ps, r.Params()...)
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
	if w.Mask[c][t] > 0 {
		return 1
	}
	if w.X[c][t][trace.FEvent] != 0 {
		return 1
	}
	return 0
}

// forward runs the model on one window. It returns the aggregate prediction
// and, when backprop is requested (gScale > 0), performs the full joint
// backward pass including the auxiliary per-CC loss. A non-nil perCC
// receives each carrier head's forecast (MaxCC rows of Horizon values).
// All intermediates come from pooled scratch; only the returned prediction
// is freshly allocated (callers may hold or mutate it).
func (p *Prism5G) forward(w trace.Window, gScale float64, perCC [][]float64) []float64 {
	C := trace.MaxCC
	T := p.histT
	H := p.Opts.Hidden
	F := trace.NumCCFeatures
	s := p.pool.Get().(*prismScratch)
	s.ar.Reset()

	// --- Per-CC inputs with state gating: a gated-off step reads zeros ---
	maskFlat := s.ar.Floats(C * T)
	for c := 0; c < C; c++ {
		for t := 0; t < T; t++ {
			maskFlat[c*T+t] = gate(w, c, t)
		}
	}
	gatedOff := func(c, t int) bool { return p.Opts.UseState && maskFlat[c*T+t] == 0 }

	// --- Shared (or per-CC) RNN ---
	hcs := s.ar.Rows(C)
	var backs [trace.MaxCC]func([]float64)
	lstm := p.batched()
	if lstm != nil {
		// The carriers' sequences, stacked step-major, are one batch.
		X := s.ar.Floats(T * C * F)
		for t := 0; t < T; t++ {
			for c := 0; c < C; c++ {
				if !gatedOff(c, t) {
					copy(X[(t*C+c)*F:(t*C+c+1)*F], w.X[c][t])
				}
			}
		}
		last := lstm.ForwardBatch(&s.batch, X, C, T)
		for c := range hcs {
			hcs[c] = last[c*H : (c+1)*H]
		}
	} else {
		seq := s.ar.Rows(T)
		for c := 0; c < C; c++ {
			for t := range seq {
				seq[t] = w.X[c][t]
				if gatedOff(c, t) {
					seq[t] = zeroFeat
				}
			}
			hcs[c], backs[c] = p.rnnFor(c).run(&s.rnns[c], seq)
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
	ypred := make([]float64, p.Opts.Horizon)
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
		p.pool.Put(s)
		return ypred
	}

	// --- Backward ---
	// Aggregate loss gradient reaches every head equally; auxiliary
	// per-CC loss adds a direct term.
	gAgg := nn.MSEGradInto(s.ar.Floats(p.Opts.Horizon), ypred, w.Y)
	ghf := s.ar.Floats(H)
	ghLast := s.ar.Floats(C * H) // dL/dh_c, carrier after carrier
	gyc := s.ar.Floats(p.Opts.Horizon)
	gaux := s.ar.Floats(p.Opts.Horizon)
	for c := 0; c < C; c++ {
		for h := 0; h < p.Opts.Horizon; h++ {
			gyc[h] = gAgg[h] * gScale
		}
		if p.Opts.PerCCLossWeight > 0 {
			nn.MSEGradInto(gaux, ycs[c], w.YPerCC[c])
			for h := range gyc {
				gyc[h] += p.Opts.PerCCLossWeight * gScale * gaux[h] / float64(C)
			}
		}
		ghp := p.head.Backward(&s.htapes[c], gyc)
		copy(ghLast[c*H:(c+1)*H], ghp)
		for i := 0; i < H; i++ {
			ghf[i] += ghp[i]
		}
	}
	if p.Opts.UseFusion {
		gfin := p.fusion.Backward(&s.ftape, ghf)
		for i := 0; i < C*H; i++ {
			ghLast[i] += gfin[i]
		}
		if p.Opts.UseState {
			gemb := gfin[C*H : C*H+H]
			p.embed.BackwardInto(s.ar.Floats(C*T), maskFlat, gemb)
		}
	}
	if lstm != nil {
		lstm.BackwardBatch(&s.batch, ghLast)
	} else {
		for c := 0; c < C; c++ {
			backs[c](ghLast[c*H : (c+1)*H])
		}
	}
	p.pool.Put(s)
	return ypred
}

// ForwardBackward implements predictors.SeqModel.
func (p *Prism5G) ForwardBackward(w trace.Window, gScale float64) []float64 {
	return p.forward(w, gScale, nil)
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
