package predictors

import (
	"sync"

	"prism5g/internal/nn"
	"prism5g/internal/rng"
	"prism5g/internal/trace"
)

// The neural baselines keep their forward/backward intermediates in pooled
// scratch (tapes + a bump arena) so the hot paths stop allocating per
// sample. A sync.Pool is required rather than a plain struct field because
// Predict must stay safe under concurrent callers (the serving path fans
// requests across goroutines); Train is single-goroutine by contract.
// Returned predictions are always freshly allocated — callers (Resilient,
// the serving layer) may hold or mutate them after the scratch is reused.

// LSTMPredictor is the LSTM baseline [28]: one recurrent pass over the
// aggregate feature sequence, with a linear head emitting the full horizon.
type LSTMPredictor struct {
	Hidden  int
	Horizon int
	Opts    TrainOpts

	lstm *nn.LSTM
	head *nn.Dense

	pool sync.Pool   // *lstmScratch, for ForwardBackward and Predict
	bs   lstmScratch // ForwardBackwardBatch's; train-time only, so not pooled
}

type lstmScratch struct {
	tape nn.LSTMTape
	ar   nn.Arena
}

// NewLSTMPredictor builds the baseline (paper: two-layer 128 hidden; we use
// one layer sized by hidden, which trains far faster at equal accuracy on
// these trace sizes).
func NewLSTMPredictor(hidden, horizon int, opts TrainOpts) *LSTMPredictor {
	src := rng.New(opts.Seed ^ 0x15717)
	p := &LSTMPredictor{
		Hidden: hidden, Horizon: horizon, Opts: opts,
		lstm: nn.NewLSTM("lstm", AggFeatureDim, hidden, src),
		head: nn.NewDense("lstm.head", hidden, horizon, src),
	}
	p.pool.New = func() any { return &lstmScratch{} }
	return p
}

// Name implements Predictor.
func (p *LSTMPredictor) Name() string { return "LSTM" }

// Params implements seqModel.
func (p *LSTMPredictor) Params() []*nn.Param {
	return append(p.lstm.Params(), p.head.Params()...)
}

// ForwardBackward implements SeqModel: the window runs as a minibatch of
// one on pooled scratch, so concurrent Predict calls are safe.
func (p *LSTMPredictor) ForwardBackward(w trace.Window, gScale float64) []float64 {
	s := p.pool.Get().(*lstmScratch)
	y := append([]float64(nil), p.forwardBackward(s, []trace.Window{w}, gScale)[0]...)
	p.pool.Put(s)
	return y
}

// ForwardBackwardBatch implements BatchSeqModel. The returned predictions
// are views into model scratch, valid until the next batch call; not safe
// for concurrent use (train-time only).
func (p *LSTMPredictor) ForwardBackwardBatch(ws []trace.Window, gScale float64) [][]float64 {
	if len(ws) == 0 {
		return nil
	}
	return p.forwardBackward(&p.bs, ws, gScale)
}

// forwardBackward is the model's one pass: the windows, which must share
// one history length, run as the lanes of one LSTM tape and as the rows
// of one head product. Per window every float64 accumulation chain —
// forward values, loss gradients and the ascending window order of
// parameter-gradient contributions — matches a one-window pass, so any
// minibatch trains bit-identically to its windows one by one. The
// returned predictions are views into s.
func (p *LSTMPredictor) forwardBackward(s *lstmScratch, ws []trace.Window, gScale float64) [][]float64 {
	b := len(ws)
	T := len(ws[0].AggHist())
	s.ar.Reset()
	// Gather features step-major: step t, sample si at X[(t*b+si)*dim].
	X := s.ar.Floats(T * b * AggFeatureDim)
	for si, w := range ws {
		if len(w.AggHist()) != T {
			panic("predictors: LSTM minibatch windows differ in history length")
		}
		for t := 0; t < T; t++ {
			fillAggFeatures(X[(t*b+si)*AggFeatureDim:(t*b+si+1)*AggFeatureDim], w, t)
		}
	}
	lastH := p.lstm.ForwardBatch(&s.tape, X, b, T)
	out := p.head.Out
	Y := s.ar.Floats(b * out)
	p.head.ForwardBatch(Y, lastH, b)
	ys := s.ar.Rows(b)
	for si := range ys {
		ys[si] = Y[si*out : (si+1)*out]
	}
	if gScale > 0 {
		G := s.ar.Floats(b * out)
		for si, w := range ws {
			g := nn.MSEGradInto(G[si*out:(si+1)*out], ys[si], w.Y())
			for i := range g {
				g[i] *= gScale
			}
		}
		GH := s.ar.Floats(b * p.head.In)
		p.head.BackwardBatch(GH, lastH, G, b, nil)
		p.lstm.BackwardBatch(&s.tape, GH, nil)
	}
	return ys
}

// Train implements Predictor.
func (p *LSTMPredictor) Train(train, val []trace.Window) TrainReport {
	return TrainLoop(p, train, val, p.Opts)
}

// Predict implements Predictor.
func (p *LSTMPredictor) Predict(w trace.Window) []float64 {
	return p.ForwardBackward(w, 0)
}

// TCNPredictor is the temporal-convolutional baseline [9].
type TCNPredictor struct {
	Channels, Kernel, Blocks int
	Horizon                  int
	Opts                     TrainOpts

	tcn  *nn.TCN
	head *nn.Dense

	pool sync.Pool // *tcnScratch
}

type tcnScratch struct {
	tape nn.TCNTape
	ar   nn.Arena
}

// NewTCNPredictor builds the TCN baseline.
func NewTCNPredictor(channels, horizon int, opts TrainOpts) *TCNPredictor {
	src := rng.New(opts.Seed ^ 0x7c17)
	p := &TCNPredictor{
		Channels: channels, Kernel: 2, Blocks: 3, Horizon: horizon, Opts: opts,
		tcn:  nn.NewTCN("tcn", AggFeatureDim, channels, 2, 3, src),
		head: nn.NewDense("tcn.head", channels, horizon, src),
	}
	p.pool.New = func() any { return &tcnScratch{} }
	return p
}

// Name implements Predictor.
func (p *TCNPredictor) Name() string { return "TCN" }

// Params implements seqModel.
func (p *TCNPredictor) Params() []*nn.Param {
	return append(p.tcn.Params(), p.head.Params()...)
}

// ForwardBackward implements SeqModel.
func (p *TCNPredictor) ForwardBackward(w trace.Window, gScale float64) []float64 {
	s := p.pool.Get().(*tcnScratch)
	s.ar.Reset()
	seq := aggFeaturesInto(&s.ar, w)
	out := p.tcn.ForwardTape(&s.tape, seq)
	last := out[len(out)-1]
	y := p.head.Forward(last)
	if gScale > 0 {
		g := nn.MSEGradInto(s.ar.Floats(len(y)), y, w.Y())
		for i := range g {
			g[i] *= gScale
		}
		gy := s.ar.Rows(len(out))
		gy[len(out)-1] = p.head.BackwardInto(s.ar.Floats(p.head.In), last, g)
		p.tcn.Backward(&s.tape, gy)
	}
	p.pool.Put(s)
	return y
}

// Train implements Predictor.
func (p *TCNPredictor) Train(train, val []trace.Window) TrainReport {
	return TrainLoop(p, train, val, p.Opts)
}

// Predict implements Predictor.
func (p *TCNPredictor) Predict(w trace.Window) []float64 {
	return p.ForwardBackward(w, 0)
}

// Lumos5G is the Seq2Seq baseline: Lumos5G's model architecture [32]
// (encoder-decoder) over UE-side context features. The mmWave-specific
// user-context features (panel angle, orientation) are omitted per the
// paper's footnote 4.
type Lumos5G struct {
	Hidden  int
	Horizon int
	Opts    TrainOpts

	s2s *nn.Seq2Seq

	pool sync.Pool // *lumosScratch
}

type lumosScratch struct {
	tape nn.Seq2SeqTape
	ar   nn.Arena
}

// NewLumos5G builds the Seq2Seq baseline.
func NewLumos5G(hidden, horizon int, opts TrainOpts) *Lumos5G {
	src := rng.New(opts.Seed ^ 0x10305)
	p := &Lumos5G{
		Hidden: hidden, Horizon: horizon, Opts: opts,
		s2s: nn.NewSeq2Seq("lumos", AggFeatureDim, hidden, horizon, src),
	}
	p.pool.New = func() any { return &lumosScratch{} }
	return p
}

// Name implements Predictor.
func (p *Lumos5G) Name() string { return "Lumos5G" }

// Params implements seqModel.
func (p *Lumos5G) Params() []*nn.Param { return p.s2s.Params() }

// ForwardBackward implements SeqModel.
func (p *Lumos5G) ForwardBackward(w trace.Window, gScale float64) []float64 {
	s := p.pool.Get().(*lumosScratch)
	s.ar.Reset()
	seq := aggFeaturesInto(&s.ar, w)
	hist := w.AggHist()
	histLast := hist[len(hist)-1]
	var y []float64
	if gScale > 0 {
		// Teacher forcing during training.
		y = p.s2s.ForwardTape(&s.tape, seq, histLast, w.Y())
		g := nn.MSEGradInto(s.ar.Floats(len(y)), y, w.Y())
		for i := range g {
			g[i] *= gScale
		}
		p.s2s.Backward(&s.tape, g)
	} else {
		y = p.s2s.ForwardTape(&s.tape, seq, histLast, nil)
	}
	y = append([]float64(nil), y...)
	p.pool.Put(s)
	return y
}

// Train implements Predictor.
func (p *Lumos5G) Train(train, val []trace.Window) TrainReport {
	return TrainLoop(p, train, val, p.Opts)
}

// Predict implements Predictor.
func (p *Lumos5G) Predict(w trace.Window) []float64 {
	return p.ForwardBackward(w, 0)
}
