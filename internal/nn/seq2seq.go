package nn

import "prism5g/internal/rng"

// Seq2Seq is an encoder-decoder LSTM with a linear head per decoder step —
// the Lumos5G architecture the paper compares against. Training uses teacher
// forcing (decoder inputs are the ground-truth previous values); inference
// is autoregressive.
type Seq2Seq struct {
	Enc     *LSTM
	Dec     *LSTM // 1-dimensional input: the previous target value
	Head    *Dense
	Horizon int
}

// NewSeq2Seq builds the model: in-dim encoder, hidden units, horizon steps.
func NewSeq2Seq(name string, in, hidden, horizon int, src *rng.Source) *Seq2Seq {
	return &Seq2Seq{
		Enc:     NewLSTM(name+".enc", in, hidden, src),
		Dec:     NewLSTM(name+".dec", 1, hidden, src),
		Head:    NewDense(name+".head", hidden, 1, src),
		Horizon: horizon,
	}
}

// Params implements Module.
func (s *Seq2Seq) Params() []*Param {
	var ps []*Param
	ps = append(ps, s.Enc.Params()...)
	ps = append(ps, s.Dec.Params()...)
	ps = append(ps, s.Head.Params()...)
	return ps
}

// Seq2SeqTape records one forward pass. A caller-owned tape reused across
// ForwardTape calls recycles the encoder/decoder tapes and scratch arena.
type Seq2SeqTape struct {
	encTape LSTMTape
	decTape LSTMTape
	// decAlt is the second decoder tape for the autoregressive path: each
	// step's initial state is a view into the previous step's tape, so two
	// tapes alternate — resetting one never clobbers the state it reads.
	decAlt LSTMTape
	decHs  [][]float64
	preds  []float64

	ar   Arena
	mark Mark
}

// ForwardTape encodes hist ([T][in]) and decodes Horizon predictions,
// recording into a reusable caller-owned tape. teacher, when non-nil,
// provides the ground-truth sequence for teacher forcing (teacher[k] is
// the true value at horizon step k); the decoder's first input is the last
// history value histLast. The returned predictions are a view into the
// tape, valid until its next use.
func (s *Seq2Seq) ForwardTape(t *Seq2SeqTape, hist [][]float64, histLast float64, teacher []float64) []float64 {
	t.ar.Reset()
	s.Enc.ForwardTape(&t.encTape, hist, nil, nil)
	h0, c0 := t.encTape.LastHidden()
	yh := t.ar.Floats(1) // head output scratch
	if teacher != nil {
		// Teacher forcing: all decoder inputs known up front.
		ins := t.ar.Rows(s.Horizon)
		inVals := t.ar.Floats(s.Horizon)
		inVals[0] = histLast
		for k := 1; k < s.Horizon; k++ {
			inVals[k] = teacher[k-1]
		}
		for k := range ins {
			ins[k] = inVals[k : k+1 : k+1]
		}
		hs := s.Dec.ForwardTape(&t.decTape, ins, h0, c0)
		t.decHs = hs
		preds := t.ar.Floats(s.Horizon)
		for k, h := range hs {
			preds[k] = s.Head.ForwardInto(yh, h)[0]
		}
		t.preds = preds
		t.mark = t.ar.Mark()
		return preds
	}
	// Autoregressive inference: feed own predictions. Gradients are not
	// supported on this path (the decoder tapes only cover the final two
	// unrolled steps; train with teacher forcing).
	preds := t.ar.Floats(s.Horizon)
	hsAll := t.ar.Matrix(s.Horizon, s.Dec.Hidden)
	prev := t.ar.Floats(1)
	prev[0] = histLast
	ins := t.ar.Rows(1)
	h, c := h0, c0
	cur, alt := &t.decTape, &t.decAlt
	for k := 0; k < s.Horizon; k++ {
		ins[0] = prev
		hs := s.Dec.ForwardTape(cur, ins, h, c)
		h, c = cur.LastHidden()
		preds[k] = s.Head.ForwardInto(yh, hs[0])[0]
		copy(hsAll[k], hs[0])
		prev[0] = preds[k]
		cur, alt = alt, cur
	}
	t.decHs = hsAll
	t.preds = preds
	t.mark = t.ar.Mark()
	return preds
}

// Backward accumulates gradients for a teacher-forced forward pass given
// dL/dpred.
func (s *Seq2Seq) Backward(tape *Seq2SeqTape, gPred []float64) {
	ar := &tape.ar
	ar.Rewind(tape.mark)
	gh := ar.Rows(len(tape.decHs))
	gy := ar.Floats(1)
	for k, h := range tape.decHs {
		if gPred[k] == 0 {
			continue
		}
		gy[0] = gPred[k]
		gh[k] = s.Head.BackwardInto(ar.Floats(s.Head.In), h, gy)
	}
	dh0, dc0 := s.Dec.Backward(&tape.decTape, gh, nil, nil)
	// Push the state gradients into the encoder's last step.
	encGh := ar.Rows(tape.encTape.T())
	if tape.encTape.T() > 0 {
		encGh[tape.encTape.T()-1] = dh0
	}
	// dc0 flows into the encoder's terminal cell state.
	s.Enc.Backward(&tape.encTape, encGh, dc0, nil)
}
