package nn

import "prism5g/internal/rng"

// LSTM is a single-layer long short-term memory cell applied over a
// sequence. Gate order in the packed weight matrices is (i, f, g, o).
type LSTM struct {
	In, Hidden int
	Wx         *Param // 4H x In
	Wh         *Param // 4H x H
	B          *Param // 4H
}

// NewLSTM creates an initialized LSTM. The forget-gate bias starts at 1,
// the standard trick to ease gradient flow early in training.
func NewLSTM(name string, in, hidden int, src *rng.Source) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx: NewParam(name+".Wx", 4*hidden*in),
		Wh: NewParam(name+".Wh", 4*hidden*hidden),
		B:  NewParam(name+".b", 4*hidden),
	}
	l.Wx.InitUniform(src, in, hidden)
	l.Wh.InitUniform(src, hidden, hidden)
	for h := 0; h < hidden; h++ {
		l.B.W[hidden+h] = 1 // forget gate
	}
	return l
}

// Params implements Module.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// LSTMTape records a forward pass over b lanes — b sequences of one
// length, each from its own state — for BPTT. Every per-step buffer holds
// the lanes back to back: lane s of step t sits at [s*H:(s+1)*H] of the
// step's row, and its input at [s*In:(s+1)*In]. A caller-owned tape
// reused across passes recycles its arena-backed buffers, so steady-state
// passes allocate nothing.
type LSTMTape struct {
	b            int         // lanes
	xs           [][]float64 // inputs per step (b*In, the caller's)
	i, f, g, o   [][]float64 // gate activations per step
	c, h         [][]float64 // cell and hidden states per step
	tanhC        [][]float64 // tanh(c) per step
	cPrev, hPrev []float64   // initial states

	ar   Arena
	mark Mark // arena state after the forward; backward passes rewind here
}

// T returns the sequence length of the tape.
func (t *LSTMTape) T() int { return len(t.xs) }

// ForwardTape runs the LSTM over one sequence seq (T steps of In
// features) from the given initial hidden and cell states (nil means
// zeros), recording it as the tape's one lane. The returned hidden-state
// sequence is a view into the tape, valid until its next use. The tape
// copies seq's spine but not its rows, which must stay valid until the
// backward pass.
func (l *LSTM) ForwardTape(t *LSTMTape, seq [][]float64, h0, c0 []float64) [][]float64 {
	t.ar.Reset()
	t.xs = t.ar.Rows(len(seq))
	copy(t.xs, seq)
	l.forward(t, 1, h0, c0)
	return t.h
}

// ForwardBatch runs the LSTM over a minibatch of b sequences of length T,
// all from zero state, as the tape's b lanes. X is step-major flat: step
// ti, sample s is X[(ti*b+s)*In : +In]. X must stay valid until
// BackwardBatch. It returns the final hidden states as one flat b*H block
// (a view into the tape; the zero initial state when T is 0).
func (l *LSTM) ForwardBatch(t *LSTMTape, X []float64, b, T int) []float64 {
	t.ar.Reset()
	t.xs = t.ar.Rows(T)
	n := b * l.In
	for ti := range t.xs {
		t.xs[ti] = X[ti*n : (ti+1)*n]
	}
	return l.forward(t, b, nil, nil)
}

// forward is the one forward loop behind ForwardTape and ForwardBatch,
// which reset the arena and fill t.xs. It runs the b lanes from h0 and c0
// (b*H each; nil means zeros) and returns the last step's hidden states.
// Each step computes every lane's gate preactivations as one product with
// the packed kernel (kernel.go), whose per-element accumulation order
// matches the scalar loop bit for bit, then runs cellStep per lane with
// the gate kernel (gate.go), which matches Sigmoid and Tanh bit for bit.
// So each lane's values are those of a one-lane pass. Wx and Wh are packed
// into the tape on every call, so the parameters stay the only copy an
// optimizer step updates.
func (l *LSTM) forward(t *LSTMTape, b int, h0, c0 []float64) []float64 {
	H := l.Hidden
	T := len(t.xs)
	wx := packNT(&t.ar, l.Wx.W, 4*H, l.In)
	wh := packNT(&t.ar, l.Wh.W, 4*H, H)
	if h0 == nil {
		h0 = t.ar.Floats(b * H)
	}
	if c0 == nil {
		c0 = t.ar.Floats(b * H)
	}
	t.b, t.hPrev, t.cPrev = b, h0, c0
	t.i = t.ar.Matrix(T, b*H)
	t.f = t.ar.Matrix(T, b*H)
	t.g = t.ar.Matrix(T, b*H)
	t.o = t.ar.Matrix(T, b*H)
	t.c = t.ar.Matrix(T, b*H)
	t.h = t.ar.Matrix(T, b*H)
	t.tanhC = t.ar.Matrix(T, b*H)
	z := t.ar.Floats(b * 4 * H) // gate preactivations, overwritten per step
	hPrev, cPrev := h0, c0
	for ti, x := range t.xs {
		// z[s*4H + gate*H + h] = b + Wx·x + Wh·hPrev, each dot ascending.
		wx.mul(z, x, b, l.B.W, false)
		wh.mul(z, hPrev, b, nil, true)
		for s := 0; s < b; s++ {
			lo, hi := s*H, (s+1)*H
			cellStep(z[4*lo:4*hi], cPrev[lo:hi], t.i[ti][lo:hi], t.f[ti][lo:hi], t.g[ti][lo:hi],
				t.o[ti][lo:hi], t.c[ti][lo:hi], t.tanhC[ti][lo:hi], t.h[ti][lo:hi])
		}
		hPrev, cPrev = t.h[ti], t.c[ti]
	}
	t.mark = t.ar.Mark()
	return hPrev
}

// cellStep is one lane's LSTM cell update: from the gate preactivations
// z (the i, f, g and o blocks, H each) and the previous cell state, it
// fills the gate activations i, f, g, o, the cell state c, tanh(c) and
// the hidden state h. The forward loop runs it per lane and step.
func cellStep(z, cPrev, i, f, g, o, c, tc, h []float64) {
	H := len(c)
	sigmoids(i, z[:H])
	sigmoids(f, z[H:2*H])
	tanhs(g, z[2*H:3*H])
	sigmoids(o, z[3*H:4*H])
	for k := range c {
		c[k] = f[k]*cPrev[k] + i[k]*g[k]
	}
	tanhs(tc, c)
	for k := range h {
		h[k] = o[k] * tc[k]
	}
}

// Backward runs BPTT through a one-lane tape. gh is the gradient of the
// loss with respect to each hidden state (len T; entries may be nil
// meaning zero), and dcT, when non-nil, the gradient flowing into the
// final cell state (a decoder was started from this LSTM's terminal
// state). It accumulates parameter gradients and returns gradients with
// respect to the inputs plus those with respect to the initial hidden and
// cell states. Returned slices are views into the tape's scratch, valid
// until its next use.
func (l *LSTM) Backward(t *LSTMTape, gh [][]float64, dcT []float64) (gxs [][]float64, dh0, dc0 []float64) {
	return l.bptt(t, 0, t.mark, gh, dcT)
}

// BackwardBatch backpropagates through every lane of the tape, such as a
// ForwardBatch pass. ghLast is the flat b*H gradient flowing into each
// lane's final hidden state (the only step the downstream head reads). The lanes run the one BPTT loop in
// ascending order, so each parameter gradient adds their contributions in
// the order b successive one-lane Backward calls would: the result is
// bit-identical to them.
func (l *LSTM) BackwardBatch(t *LSTMTape, ghLast []float64) {
	H := l.Hidden
	T := t.T()
	if T == 0 {
		return
	}
	t.ar.Rewind(t.mark)
	gh := t.ar.Rows(T)
	m := t.ar.Mark() // lane scratch starts above the spine
	for s := 0; s < t.b; s++ {
		gh[T-1] = ghLast[s*H : (s+1)*H]
		l.bptt(t, s, m, gh, nil)
	}
}

// bptt is the one BPTT loop: it backpropagates lane s of the tape, drawing
// its scratch from the arena at m.
func (l *LSTM) bptt(t *LSTMTape, s int, m Mark, gh [][]float64, dcT []float64) (gxs [][]float64, dh0, dc0 []float64) {
	H, In := l.Hidden, l.In
	T := t.T()
	lo, hi := s*H, (s+1)*H
	ar := &t.ar
	ar.Rewind(m)
	gxs = ar.Rows(T)
	dhNext := ar.Floats(H)
	dcNext := ar.Floats(H)
	if dcT != nil {
		copy(dcNext, dcT)
	}
	// Per-step scratch, fully rewritten every iteration. dz holds the
	// gate preactivation gradients in the weights' row order (i, f, g, o).
	dh := ar.Floats(H)
	dhPrev := ar.Floats(H)
	dz := ar.Floats(4 * H)
	dzi, dzf, dzg, dzo := dz[:H], dz[H:2*H], dz[2*H:3*H], dz[3*H:]
	dc := ar.Floats(H)
	for ti := T - 1; ti >= 0; ti-- {
		copy(dh, dhNext)
		if ti < len(gh) && gh[ti] != nil {
			for h := 0; h < H; h++ {
				dh[h] += gh[ti][h]
			}
		}
		iv, fv, gv, ov := t.i[ti][lo:hi], t.f[ti][lo:hi], t.g[ti][lo:hi], t.o[ti][lo:hi]
		tc := t.tanhC[ti][lo:hi]
		cPrev, hPrev := t.cPrev, t.hPrev
		if ti > 0 {
			cPrev, hPrev = t.c[ti-1], t.h[ti-1]
		}
		cPrev, hPrev = cPrev[lo:hi], hPrev[lo:hi]
		for h := 0; h < H; h++ {
			do := dh[h] * tc[h]
			dc[h] = dcNext[h] + dh[h]*ov[h]*(1-tc[h]*tc[h])
			di := dc[h] * gv[h]
			df := dc[h] * cPrev[h]
			dg := dc[h] * iv[h]
			dzi[h] = di * iv[h] * (1 - iv[h])
			dzf[h] = df * fv[h] * (1 - fv[h])
			dzg[h] = dg * (1 - gv[h]*gv[h])
			dzo[h] = do * ov[h] * (1 - ov[h])
		}
		// Parameter grads and input/hidden grads, row by row: hidden unit
		// first, then gate, skipping zero rows.
		for row, z := range dz {
			if z != 0 {
				l.B.Grad[row] += z
			}
		}
		gx := ar.Floats(In)
		clear(dhPrev)
		accumRows(l.Wx.Grad, gx, l.Wx.W, t.xs[ti][s*In:(s+1)*In], dz, dz, H, 4, In)
		accumRows(l.Wh.Grad, dhPrev, l.Wh.W, hPrev, dz, dz, H, 4, H)
		gxs[ti] = gx
		copy(dhNext, dhPrev)
		for h := 0; h < H; h++ {
			dcNext[h] = dc[h] * fv[h]
		}
	}
	return gxs, dhNext, dcNext
}

// LastHidden returns the final hidden and cell state of a one-lane tape
// (its initial state for an empty sequence).
func (t *LSTMTape) LastHidden() (h, c []float64) {
	if len(t.h) == 0 {
		return t.hPrev, t.cPrev
	}
	return t.h[len(t.h)-1], t.c[len(t.c)-1]
}
