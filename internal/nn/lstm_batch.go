package nn

// LSTMBatchTape records a whole-minibatch forward pass: every per-step
// buffer is one flat batch*H block, so the recurrence runs as one batched
// GEMM per step instead of batch separate GEMVs. A caller-owned tape
// reused across ForwardBatch calls recycles its arena.
type LSTMBatchTape struct {
	batch, in int
	xs        []float64 // caller's step-major [T][batch][in] input, kept for backward

	i, f, g, o   [][]float64 // per step: flat batch*H
	c, h, tanhC  [][]float64
	hPrev, cPrev []float64 // initial states (zeros), flat batch*H

	ar   Arena
	mark Mark

	view LSTMTape // reusable per-sample view for BackwardBatch
}

// ForwardBatch runs the LSTM over a minibatch of b sequences of length T,
// all starting from zero state. X is step-major flat: step ti, sample s is
// X[(ti*b+s)*In : +In]. X must stay valid until BackwardBatch. It returns
// the final hidden states as one flat b*H block (a view into the tape).
// Wx and Wh are packed once per call, as in ForwardTape.
//
// Per sample the computation — and every float64 accumulation chain — is
// identical to ForwardTape on that sample alone; batching only changes how
// the work is laid out.
func (l *LSTM) ForwardBatch(t *LSTMBatchTape, X []float64, b, T int) []float64 {
	H := l.Hidden
	t.batch, t.in, t.xs = b, l.In, X
	t.ar.Reset()
	wx := packNT(&t.ar, l.Wx.W, 4*H, l.In)
	wh := packNT(&t.ar, l.Wh.W, 4*H, H)
	t.i = t.ar.Matrix(T, b*H)
	t.f = t.ar.Matrix(T, b*H)
	t.g = t.ar.Matrix(T, b*H)
	t.o = t.ar.Matrix(T, b*H)
	t.c = t.ar.Matrix(T, b*H)
	t.h = t.ar.Matrix(T, b*H)
	t.tanhC = t.ar.Matrix(T, b*H)
	t.hPrev = t.ar.Floats(b * H)
	t.cPrev = t.ar.Floats(b * H)
	Z := t.ar.Floats(b * 4 * H) // preactivations, overwritten per step
	hPrev, cPrev := t.hPrev, t.cPrev
	for ti := 0; ti < T; ti++ {
		wx.mul(Z, X[ti*b*l.In:(ti+1)*b*l.In], b, l.B.W, false)
		wh.mul(Z, hPrev, b, nil, true)
		for s := 0; s < b; s++ {
			lo, hi := s*H, (s+1)*H
			cellStep(Z[4*lo:4*hi], cPrev[lo:hi], t.i[ti][lo:hi], t.f[ti][lo:hi], t.g[ti][lo:hi],
				t.o[ti][lo:hi], t.c[ti][lo:hi], t.tanhC[ti][lo:hi], t.h[ti][lo:hi])
		}
		hPrev, cPrev = t.h[ti], t.c[ti]
	}
	t.mark = t.ar.Mark()
	return hPrev
}

// BackwardBatch backpropagates through a ForwardBatch pass. ghLast is the
// flat b*H gradient flowing into each sample's final hidden state (the
// only step the downstream head reads). Parameter-gradient contributions
// accumulate sample by sample in ascending batch order — exactly the order
// b successive per-sample Backward calls would have used, so the result is
// bit-identical to the unbatched path.
func (l *LSTM) BackwardBatch(t *LSTMBatchTape, ghLast []float64) {
	H := l.Hidden
	T := len(t.i)
	if T == 0 {
		return
	}
	b := t.batch
	ar := &t.ar
	ar.Rewind(t.mark)
	// Per-sample view spines, refilled for each sample.
	xs := ar.Rows(T)
	is := ar.Rows(T)
	fs := ar.Rows(T)
	gs := ar.Rows(T)
	os := ar.Rows(T)
	cs := ar.Rows(T)
	hs := ar.Rows(T)
	tcs := ar.Rows(T)
	gh := ar.Rows(T)
	zeros := ar.Floats(H)
	v := &t.view
	for s := 0; s < b; s++ {
		for ti := 0; ti < T; ti++ {
			xs[ti] = t.xs[(ti*b+s)*t.in : (ti*b+s+1)*t.in]
			is[ti] = t.i[ti][s*H : (s+1)*H]
			fs[ti] = t.f[ti][s*H : (s+1)*H]
			gs[ti] = t.g[ti][s*H : (s+1)*H]
			os[ti] = t.o[ti][s*H : (s+1)*H]
			cs[ti] = t.c[ti][s*H : (s+1)*H]
			hs[ti] = t.h[ti][s*H : (s+1)*H]
			tcs[ti] = t.tanhC[ti][s*H : (s+1)*H]
			gh[ti] = nil
		}
		gh[T-1] = ghLast[s*H : (s+1)*H]
		v.xs, v.i, v.f, v.g, v.o = xs, is, fs, gs, os
		v.c, v.h, v.tanhC = cs, hs, tcs
		v.hPrev, v.cPrev = zeros, zeros
		v.mark = Mark{} // backward scratch starts at the view arena's base
		l.BackwardWithCellGrad(v, gh, nil)
	}
}
