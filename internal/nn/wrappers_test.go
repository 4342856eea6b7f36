package nn

// Allocating wrappers over the tape-based passes, for tests that want a
// fresh tape or output per call. The hot paths reuse caller-owned tapes.

// Forward runs the LSTM over seq, starting from zero states, and returns
// the hidden-state sequence plus a fresh tape.
func (l *LSTM) Forward(seq [][]float64) ([][]float64, *LSTMTape) {
	return l.ForwardFrom(seq, nil, nil)
}

// ForwardFrom runs the LSTM from the given initial hidden and cell states
// (nil means zeros), enabling encoder-decoder chaining.
func (l *LSTM) ForwardFrom(seq [][]float64, h0, c0 []float64) ([][]float64, *LSTMTape) {
	t := &LSTMTape{}
	return l.ForwardTape(t, seq, h0, c0), t
}

// Forward runs the GRU over seq from zero state, returning hidden states
// and the tape.
func (g *GRU) Forward(seq [][]float64) ([][]float64, *GRUTape) {
	t := &GRUTape{}
	return g.ForwardTape(t, seq), t
}

// Forward runs the TCN over seq [T][In] returning [T][Channels].
func (t *TCN) Forward(seq [][]float64) ([][]float64, *TCNTape) {
	tape := &TCNTape{}
	return t.ForwardTape(tape, seq), tape
}

// Forward encodes hist ([T][in]) and decodes Horizon predictions. teacher,
// when non-nil, provides the ground-truth sequence for teacher forcing
// (teacher[k] is the true value at horizon step k); the decoder's first
// input is the last history value histLast.
func (s *Seq2Seq) Forward(hist [][]float64, histLast float64, teacher []float64) ([]float64, *Seq2SeqTape) {
	t := &Seq2SeqTape{}
	return s.ForwardTape(t, hist, histLast, teacher), t
}

// Forward runs the MLP, returning the output and a fresh tape for Backward.
func (m *MLP) Forward(x []float64) ([]float64, *MLPTape) {
	t := &MLPTape{}
	return m.ForwardTape(t, x), t
}

// Backward accumulates dL/dW and dL/db given the input x used in Forward and
// the output gradient gy, and returns dL/dx.
func (d *Dense) Backward(x, gy []float64) []float64 {
	gx := make([]float64, d.In)
	d.BackwardInto(gx, x, gy)
	return gx
}

// MSEGrad returns dMSE/dpred.
func MSEGrad(pred, target []float64) []float64 {
	return MSEGradInto(make([]float64, len(pred)), pred, target)
}
