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

// GRUTape records one forward pass for backpropagation through time. A
// caller-owned tape reused across ForwardTape calls recycles its
// arena-backed buffers.
type GRUTape struct {
	xs      [][]float64
	z, r, n [][]float64
	h       [][]float64
	hPrev   []float64
	// uhn caches Uh_n * h_prev (needed exactly in backward).
	uhn [][]float64

	ar   Arena
	mark Mark
}

// T returns the sequence length.
func (t *GRUTape) T() int { return len(t.xs) }

// Forward runs the GRU over seq from zero state, returning hidden states
// and the tape.
func (g *GRU) Forward(seq [][]float64) ([][]float64, *GRUTape) {
	t := &GRUTape{}
	return g.ForwardTape(t, seq), t
}

// ForwardTape is Forward recording into a reusable caller-owned tape. The
// returned hidden-state sequence is a view into the tape, valid until its
// next use. The z/r gate preactivations use the batched kernels; the n
// candidate keeps Uh_n·hPrev as a separate dot (needed exactly in
// backward), so its accumulation chain is unchanged too. The gates run
// through the gate kernel (gate.go), bit-identical to Sigmoid and Tanh.
func (g *GRU) ForwardTape(t *GRUTape, seq [][]float64) [][]float64 {
	H := g.Hidden
	T := len(seq)
	t.ar.Reset()
	t.hPrev = t.ar.Floats(H)
	t.xs = t.ar.Rows(T)
	t.z = t.ar.Matrix(T, H)
	t.r = t.ar.Matrix(T, H)
	t.n = t.ar.Matrix(T, H)
	t.h = t.ar.Matrix(T, H)
	t.uhn = t.ar.Matrix(T, H)
	a := t.ar.Floats(3 * H) // gate preactivations, overwritten per step
	hPrev := t.hPrev
	for ti, x := range seq {
		// a[gate*H+h] = b + Wx·x for all three gates, then += Wh·hPrev for
		// z and r only; each per-element dot runs in ascending order.
		MatMulNT(a, x, 1, g.Wx.W, 3*H, g.In, g.B.W)
		MatMulAccNT(a[:2*H], hPrev, 1, g.Wh.W[:2*H*H], 2*H, H)
		uh := t.uhn[ti]
		MatMulNT(uh, hPrev, 1, g.Wh.W[2*H*H:], H, H, nil)
		zv, rv, nv, hv := t.z[ti], t.r[ti], t.n[ti], t.h[ti]
		sigmoids(zv, a[:H])
		sigmoids(rv, a[H:2*H])
		for h := range nv {
			nv[h] = a[2*H+h] + rv[h]*uh[h]
		}
		tanhs(nv, nv)
		for h := range hv {
			hv[h] = (1-zv[h])*nv[h] + zv[h]*hPrev[h]
		}
		t.xs[ti] = x
		hPrev = hv
	}
	t.mark = t.ar.Mark()
	return t.h
}

// Backward runs BPTT over the tape. gh holds dL/dh per step (nil = zero).
// It accumulates parameter gradients and returns input gradients (views
// into the tape's scratch, valid until its next use).
func (g *GRU) Backward(tape *GRUTape, gh [][]float64) [][]float64 {
	H, In := g.Hidden, g.In
	T := tape.T()
	ar := &tape.ar
	ar.Rewind(tape.mark)
	gxs := ar.Rows(T)
	dhNext := ar.Floats(H)
	for t := T - 1; t >= 0; t-- {
		dh := ar.Floats(H)
		copy(dh, dhNext)
		if t < len(gh) && gh[t] != nil {
			for h := 0; h < H; h++ {
				dh[h] += gh[t][h]
			}
		}
		zv, rv, nv := tape.z[t], tape.r[t], tape.n[t]
		uh := tape.uhn[t]
		var hPrev []float64
		if t == 0 {
			hPrev = tape.hPrev
		} else {
			hPrev = tape.h[t-1]
		}
		daz := ar.Floats(H)
		dar := ar.Floats(H)
		dan := ar.Floats(H)
		dhPrev := ar.Floats(H)
		for h := 0; h < H; h++ {
			dz := dh[h] * (hPrev[h] - nv[h])
			dn := dh[h] * (1 - zv[h])
			dhPrev[h] += dh[h] * zv[h]
			dan[h] = dn * (1 - nv[h]*nv[h])
			dr := dan[h] * uh[h]
			daz[h] = dz * zv[h] * (1 - zv[h])
			dar[h] = dr * rv[h] * (1 - rv[h])
		}
		gx := ar.Floats(In)
		x := tape.xs[t]
		for h := 0; h < H; h++ {
			// z gate.
			if daz[h] != 0 {
				row := h
				g.B.Grad[row] += daz[h]
				w := g.Wx.W[row*In : (row+1)*In]
				gw := g.Wx.Grad[row*In : (row+1)*In]
				for k, xv := range x {
					gw[k] += daz[h] * xv
					gx[k] += daz[h] * w[k]
				}
				hw := g.Wh.W[row*H : (row+1)*H]
				hgw := g.Wh.Grad[row*H : (row+1)*H]
				for k, hp := range hPrev {
					hgw[k] += daz[h] * hp
					dhPrev[k] += daz[h] * hw[k]
				}
			}
			// r gate.
			if dar[h] != 0 {
				row := H + h
				g.B.Grad[row] += dar[h]
				w := g.Wx.W[row*In : (row+1)*In]
				gw := g.Wx.Grad[row*In : (row+1)*In]
				for k, xv := range x {
					gw[k] += dar[h] * xv
					gx[k] += dar[h] * w[k]
				}
				hw := g.Wh.W[row*H : (row+1)*H]
				hgw := g.Wh.Grad[row*H : (row+1)*H]
				for k, hp := range hPrev {
					hgw[k] += dar[h] * hp
					dhPrev[k] += dar[h] * hw[k]
				}
			}
			// n candidate: a_n = Wn x + b + r * (Un hPrev).
			if dan[h] != 0 {
				row := 2*H + h
				g.B.Grad[row] += dan[h]
				w := g.Wx.W[row*In : (row+1)*In]
				gw := g.Wx.Grad[row*In : (row+1)*In]
				for k, xv := range x {
					gw[k] += dan[h] * xv
					gx[k] += dan[h] * w[k]
				}
				// Through r ⊙ (Un hPrev): d/d(Un row) = dan * r * hPrev,
				// d/dhPrev += dan * r * Un.
				hw := g.Wh.W[row*H : (row+1)*H]
				hgw := g.Wh.Grad[row*H : (row+1)*H]
				f := dan[h] * rv[h]
				for k, hp := range hPrev {
					hgw[k] += f * hp
					dhPrev[k] += f * hw[k]
				}
			}
		}
		gxs[t] = gx
		dhNext = dhPrev
	}
	return gxs
}
