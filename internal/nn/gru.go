package nn

import "prism5g/internal/rng"

// GRU is a gated recurrent unit applied over a sequence — the alternative
// RNN backbone for Prism5G (the paper's design is deliberately
// architecture-agnostic: "the type of RNN module is configurable").
// Gate order in the packed weights is (z, r, n).
type GRU struct {
	In, Hidden int
	Wx         *Param // 3H x In
	Wh         *Param // 3H x H
	B          *Param // 3H
}

// NewGRU creates an initialized GRU.
func NewGRU(name string, in, hidden int, src *rng.Source) *GRU {
	g := &GRU{
		In: in, Hidden: hidden,
		Wx: NewParam(name+".Wx", 3*hidden*in),
		Wh: NewParam(name+".Wh", 3*hidden*hidden),
		B:  NewParam(name+".b", 3*hidden),
	}
	g.Wx.InitUniform(src, in, hidden)
	g.Wh.InitUniform(src, hidden, hidden)
	return g
}

// Params implements Module.
func (g *GRU) Params() []*Param { return []*Param{g.Wx, g.Wh, g.B} }

// GRUTape records a forward pass over b lanes, all from zero state, for
// BPTT, laid out as laneTape describes.
type GRUTape struct {
	laneTape
	z, r, n [][]float64 // gate activations per step
	h       [][]float64 // hidden states per step
	uhn     [][]float64 // Un·hPrev per step, which the backward needs exactly
	hPrev   []float64   // initial state (zeros)
}

// ForwardBatch runs the GRU over b step-major sequences of length T from
// zero state as the tape's b lanes, as LSTM.ForwardBatch does, and returns
// the final hidden states as one flat b*H view (the zero state when T is
// 0). It computes every lane's preactivations with the packed kernel
// (kernel.go), bit-identical to the scalar loop. Wx and Wh are packed in
// their z/r and n row blocks so that each element keeps its chain: for z
// and r the bias, the Wx terms, then the Wh terms; for the candidate the
// bias and the Wn terms, with Un·hPrev a separate sum from +0 that r
// multiplies. The gate kernel (gate.go) matches Sigmoid and Tanh bit for
// bit, so each lane's values are those of a one-lane pass.
func (g *GRU) ForwardBatch(t *GRUTape, X []float64, b, T int) []float64 {
	t.lanes(X, b, g.In, T)
	H, In := g.Hidden, g.In
	wxZR := packNT(&t.ar, g.Wx.W[:2*H*In], 2*H, In)
	wxN := packNT(&t.ar, g.Wx.W[2*H*In:], H, In)
	whZR := packNT(&t.ar, g.Wh.W[:2*H*H], 2*H, H)
	un := packNT(&t.ar, g.Wh.W[2*H*H:], H, H)
	t.hPrev = t.ar.Floats(b * H)
	t.z = t.ar.Matrix(T, b*H)
	t.r = t.ar.Matrix(T, b*H)
	t.n = t.ar.Matrix(T, b*H)
	t.h = t.ar.Matrix(T, b*H)
	t.uhn = t.ar.Matrix(T, b*H)
	azr := t.ar.Floats(b * 2 * H) // z and r preactivations, overwritten per step
	an := t.ar.Floats(b * H)      // the candidate's bias + Wn·x, likewise
	hPrev := t.hPrev
	for ti, x := range t.xs {
		// azr[s*2H + gate*H + h] = b + Wx·x + Wh·hPrev for z and r, an[s*H
		// + h] = b + Wn·x, uh[s*H + h] = Un·hPrev; each dot ascending.
		wxZR.mul(azr, x, b, g.B.W[:2*H], false)
		whZR.mul(azr, hPrev, b, nil, true)
		wxN.mul(an, x, b, g.B.W[2*H:], false)
		uh := t.uhn[ti]
		un.mul(uh, hPrev, b, nil, false)
		zv, rv, nv, hv := t.z[ti], t.r[ti], t.n[ti], t.h[ti]
		for s := 0; s < b; s++ {
			lo, hi := s*H, (s+1)*H
			sigmoids(zv[lo:hi], azr[2*lo:2*lo+H])
			sigmoids(rv[lo:hi], azr[2*lo+H:2*hi])
		}
		for h := range nv {
			nv[h] = an[h] + rv[h]*uh[h]
		}
		tanhs(nv, nv)
		for h := range hv {
			hv[h] = (1-zv[h])*nv[h] + zv[h]*hPrev[h]
		}
		hPrev = hv
	}
	t.mark = t.ar.Mark()
	return hPrev
}

// BackwardBatch backpropagates every lane of the tape from ghLast, the flat
// b*H gradient into each lane's final hidden state, logging or adding the
// parameter-gradient rows as LSTM.BackwardBatch does.
func (g *GRU) BackwardBatch(t *GRUTape, ghLast []float64, log *GradLog) {
	t.eachLane(ghLast, g.Hidden, log, func(s int, m Mark, gh [][]float64, log *GradLog) {
		g.bptt(t, s, m, gh, log)
	})
}

// bptt backpropagates lane s of the tape, drawing its scratch from the
// arena at m. Each step's weight rows go to log (see GradLog).
func (g *GRU) bptt(t *GRUTape, s int, m Mark, gh [][]float64, log *GradLog) {
	H, In := g.Hidden, g.In
	T := t.T()
	lo, hi := s*H, (s+1)*H
	ar := &t.ar
	ar.Rewind(m)
	dhNext := ar.Floats(H)
	// Per-step scratch. da holds the preactivation gradients in the
	// weights' row order (z, r, n); dah is da with the n rows times r, the
	// factor the candidate's Un·hPrev term carries: a_n = Wn x + b + r ⊙
	// (Un hPrev).
	dh := ar.Floats(H)
	da := ar.Floats(3 * H)
	dah := ar.Floats(3 * H)
	for ti := T - 1; ti >= 0; ti-- {
		copy(dh, dhNext)
		if ti < len(gh) && gh[ti] != nil {
			for h := 0; h < H; h++ {
				dh[h] += gh[ti][h]
			}
		}
		zv, rv, nv, uh := t.z[ti][lo:hi], t.r[ti][lo:hi], t.n[ti][lo:hi], t.uhn[ti][lo:hi]
		hPrev := t.hPrev
		if ti > 0 {
			hPrev = t.h[ti-1]
		}
		hPrev = hPrev[lo:hi]
		clear(dhNext) // now dL/dhPrev, dh holding the step's gradient
		for h := 0; h < H; h++ {
			dz := dh[h] * (hPrev[h] - nv[h])
			dn := dh[h] * (1 - zv[h])
			dhNext[h] += dh[h] * zv[h]
			dan := dn * (1 - nv[h]*nv[h])
			dr := dan * uh[h]
			da[h] = dz * zv[h] * (1 - zv[h])
			da[H+h] = dr * rv[h] * (1 - rv[h])
			da[2*H+h] = dan
			dah[h], dah[H+h], dah[2*H+h] = da[h], da[H+h], dan*rv[h]
		}
		// Rows run hidden unit first, then gate; an n row with a nonzero
		// dan runs its Un half even where dan*r is zero.
		x := t.xs[ti][s*In : (s+1)*In]
		log.add(da, nil, g.B.Grad, weightRows{g.Wx.Grad, In, x})
		log.add(dah, da, nil, weightRows{g.Wh.Grad, H, hPrev})
		gradInput(dhNext, g.Wh.W, dah, da, H, 3, H)
	}
}
