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

// LSTMTape records one sequence forward pass for BPTT. A caller-owned tape
// reused across ForwardTape calls recycles its arena-backed buffers, so
// steady-state passes allocate nothing.
type LSTMTape struct {
	xs           [][]float64 // inputs per step
	i, f, g, o   [][]float64 // gate activations per step
	c, h         [][]float64 // cell and hidden states per step
	tanhC        [][]float64 // tanh(c) per step
	cPrev, hPrev []float64   // initial states

	ar   Arena
	mark Mark // arena state after Forward; Backward rewinds here
}

// T returns the sequence length of the tape.
func (t *LSTMTape) T() int { return len(t.xs) }

// Forward runs the LSTM over seq (T steps of In features), starting from
// zero states, and returns the hidden-state sequence plus a fresh tape.
func (l *LSTM) Forward(seq [][]float64) ([][]float64, *LSTMTape) {
	return l.ForwardFrom(seq, nil, nil)
}

// ForwardFrom runs the LSTM from the given initial hidden and cell states
// (nil means zeros), enabling encoder-decoder chaining.
func (l *LSTM) ForwardFrom(seq [][]float64, h0, c0 []float64) ([][]float64, *LSTMTape) {
	t := &LSTMTape{}
	return l.ForwardTape(t, seq, h0, c0), t
}

// ForwardTape is ForwardFrom recording into a reusable caller-owned tape.
// The returned hidden-state sequence is a view into the tape, valid until
// its next use. The gate preactivations are computed with the packed
// kernel (kernel.go), whose per-element accumulation order matches the
// scalar loop bit for bit, and the gates with the gate kernel (gate.go),
// which matches Sigmoid and Tanh bit for bit. Wx and Wh are packed into
// the tape on every call, so the parameters stay the only copy an
// optimizer step updates.
func (l *LSTM) ForwardTape(t *LSTMTape, seq [][]float64, h0, c0 []float64) [][]float64 {
	H := l.Hidden
	T := len(seq)
	t.ar.Reset()
	wx := packNT(&t.ar, l.Wx.W, 4*H, l.In)
	wh := packNT(&t.ar, l.Wh.W, 4*H, H)
	if h0 == nil {
		h0 = t.ar.Floats(H)
	}
	if c0 == nil {
		c0 = t.ar.Floats(H)
	}
	t.hPrev, t.cPrev = h0, c0
	t.xs = t.ar.Rows(T)
	t.i = t.ar.Matrix(T, H)
	t.f = t.ar.Matrix(T, H)
	t.g = t.ar.Matrix(T, H)
	t.o = t.ar.Matrix(T, H)
	t.c = t.ar.Matrix(T, H)
	t.h = t.ar.Matrix(T, H)
	t.tanhC = t.ar.Matrix(T, H)
	z := t.ar.Floats(4 * H) // gate preactivations, overwritten per step
	hPrev, cPrev := h0, c0
	for ti, x := range seq {
		// z[gate*H+h] = b + Wx·x + Wh·hPrev, each dot in ascending order.
		wx.mul(z, x, 1, l.B.W, false)
		wh.mul(z, hPrev, 1, nil, true)
		cellStep(z, cPrev, t.i[ti], t.f[ti], t.g[ti], t.o[ti], t.c[ti], t.tanhC[ti], t.h[ti])
		t.xs[ti] = x
		hPrev, cPrev = t.h[ti], t.c[ti]
	}
	t.mark = t.ar.Mark()
	return t.h
}

// cellStep is one sample's LSTM cell update: from the gate preactivations
// z (the i, f, g and o blocks, H each) and the previous cell state, it
// fills the gate activations i, f, g, o, the cell state c, tanh(c) and
// the hidden state h. ForwardTape and ForwardBatch both run it.
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

// Backward runs BPTT. gh is the gradient of the loss with respect to each
// hidden state (len T; entries may be nil meaning zero). It accumulates
// parameter gradients and returns gradients with respect to the inputs
// plus the gradients with respect to the initial hidden and cell states.
// Returned slices are views into the tape's scratch, valid until its next
// use.
func (l *LSTM) Backward(tape *LSTMTape, gh [][]float64) (gxs [][]float64, dh0, dc0 []float64) {
	return l.BackwardWithCellGrad(tape, gh, nil)
}

// BackwardWithCellGrad is Backward with an additional gradient dcT flowing
// into the final cell state (used when a decoder was initialized from this
// LSTM's terminal state).
func (l *LSTM) BackwardWithCellGrad(tape *LSTMTape, gh [][]float64, dcT []float64) (gxs [][]float64, dh0, dc0 []float64) {
	H, In := l.Hidden, l.In
	T := tape.T()
	ar := &tape.ar
	ar.Rewind(tape.mark)
	gxs = ar.Rows(T)
	dhNext := ar.Floats(H)
	dcNext := ar.Floats(H)
	if dcT != nil {
		copy(dcNext, dcT)
	}
	// Per-step scratch, fully rewritten every iteration.
	dh := ar.Floats(H)
	dhPrev := ar.Floats(H)
	dzi := ar.Floats(H)
	dzf := ar.Floats(H)
	dzg := ar.Floats(H)
	dzo := ar.Floats(H)
	dc := ar.Floats(H)
	for t := T - 1; t >= 0; t-- {
		copy(dh, dhNext)
		if t < len(gh) && gh[t] != nil {
			for h := 0; h < H; h++ {
				dh[h] += gh[t][h]
			}
		}
		iv, fv, gv, ov := tape.i[t], tape.f[t], tape.g[t], tape.o[t]
		tc := tape.tanhC[t]
		var cPrev, hPrev []float64
		if t == 0 {
			cPrev, hPrev = tape.cPrev, tape.hPrev
		} else {
			cPrev, hPrev = tape.c[t-1], tape.h[t-1]
		}
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
		// Parameter grads and input/hidden grads.
		gx := ar.Floats(In)
		clear(dhPrev)
		x := tape.xs[t]
		for h := 0; h < H; h++ {
			for gate, dz := range [4][]float64{dzi, dzf, dzg, dzo} {
				z := dz[h]
				if z == 0 {
					continue
				}
				row := (gate*H + h)
				l.B.Grad[row] += z
				wrow := l.Wx.W[row*In : (row+1)*In]
				grow := l.Wx.Grad[row*In : (row+1)*In]
				for k, xv := range x {
					grow[k] += z * xv
					gx[k] += z * wrow[k]
				}
				hwrow := l.Wh.W[row*H : (row+1)*H]
				hgrow := l.Wh.Grad[row*H : (row+1)*H]
				for k, hpv := range hPrev {
					hgrow[k] += z * hpv
					dhPrev[k] += z * hwrow[k]
				}
			}
		}
		gxs[t] = gx
		copy(dhNext, dhPrev)
		for h := 0; h < H; h++ {
			dcNext[h] = dc[h] * fv[h]
		}
	}
	return gxs, dhNext, dcNext
}

// LastHidden returns the final hidden and cell state of the tape (zeros for
// an empty sequence).
func (t *LSTMTape) LastHidden() (h, c []float64) {
	if len(t.h) == 0 {
		return t.hPrev, t.cPrev
	}
	return t.h[len(t.h)-1], t.c[len(t.c)-1]
}
