package nn

import (
	"fmt"
	"math"
	"testing"

	"prism5g/internal/rng"
)

// The scalar backward loops as they were before the backward kernels: the
// reference every backward pass must match bit for bit, with the AVX
// kernels on and off. They allocate their own scratch and read the tapes'
// fields.

// refBPTT backpropagates lane s of an LSTM tape.
func refBPTT(l *LSTM, t *LSTMTape, s int, gh [][]float64, dcT []float64) (gxs [][]float64, dh0, dc0 []float64) {
	H, In := l.Hidden, l.In
	T := t.T()
	lo, hi := s*H, (s+1)*H
	gxs = make([][]float64, T)
	dhNext := make([]float64, H)
	dcNext := make([]float64, H)
	if dcT != nil {
		copy(dcNext, dcT)
	}
	dh := make([]float64, H)
	dhPrev := make([]float64, H)
	dzi := make([]float64, H)
	dzf := make([]float64, H)
	dzg := make([]float64, H)
	dzo := make([]float64, H)
	dc := make([]float64, H)
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
		gx := make([]float64, In)
		clear(dhPrev)
		x := t.xs[ti][s*In : (s+1)*In]
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
		gxs[ti] = gx
		copy(dhNext, dhPrev)
		for h := 0; h < H; h++ {
			dcNext[h] = dc[h] * fv[h]
		}
	}
	return gxs, dhNext, dcNext
}

// refGRUBackward backpropagates lane s of a GRU tape.
func refGRUBackward(g *GRU, tape *GRUTape, s int, gh [][]float64) {
	H, In := g.Hidden, g.In
	T := tape.T()
	lo, hi := s*H, (s+1)*H
	dhNext := make([]float64, H)
	for t := T - 1; t >= 0; t-- {
		dh := make([]float64, H)
		copy(dh, dhNext)
		if t < len(gh) && gh[t] != nil {
			for h := 0; h < H; h++ {
				dh[h] += gh[t][h]
			}
		}
		zv, rv, nv := tape.z[t][lo:hi], tape.r[t][lo:hi], tape.n[t][lo:hi]
		uh := tape.uhn[t][lo:hi]
		hPrev := tape.hPrev
		if t > 0 {
			hPrev = tape.h[t-1]
		}
		hPrev = hPrev[lo:hi]
		daz := make([]float64, H)
		dar := make([]float64, H)
		dan := make([]float64, H)
		dhPrev := make([]float64, H)
		for h := 0; h < H; h++ {
			dz := dh[h] * (hPrev[h] - nv[h])
			dn := dh[h] * (1 - zv[h])
			dhPrev[h] += dh[h] * zv[h]
			dan[h] = dn * (1 - nv[h]*nv[h])
			dr := dan[h] * uh[h]
			daz[h] = dz * zv[h] * (1 - zv[h])
			dar[h] = dr * rv[h] * (1 - rv[h])
		}
		x := tape.xs[t][s*In : (s+1)*In]
		for h := 0; h < H; h++ {
			// The z and r rows; the n row's Un half carries dan*r.
			for gate, d := range [3]float64{daz[h], dar[h], dan[h]} {
				if d == 0 {
					continue
				}
				row := gate*H + h
				g.B.Grad[row] += d
				gw := g.Wx.Grad[row*In : (row+1)*In]
				for k, xv := range x {
					gw[k] += d * xv
				}
				f := d
				if gate == 2 {
					f = d * rv[h]
				}
				hw := g.Wh.W[row*H : (row+1)*H]
				hgw := g.Wh.Grad[row*H : (row+1)*H]
				for k, hp := range hPrev {
					hgw[k] += f * hp
					dhPrev[k] += f * hw[k]
				}
			}
		}
		dhNext = dhPrev
	}
}

// refTCNBackward backpropagates a TCN tape.
func refTCNBackward(t *TCN, tape *TCNTape, gy [][]float64) [][]float64 {
	g := gy
	for bi := len(t.Blocks) - 1; bi >= 0; bi-- {
		blk := t.Blocks[bi]
		in := tape.inputs[bi]
		pre := tape.preacts[bi]
		T := len(in)
		gIn := make([][]float64, T)
		for ti := range gIn {
			gIn[ti] = make([]float64, blk.in)
		}
		gres := make([]float64, blk.in)
		for ti := 0; ti < T; ti++ {
			if ti >= len(g) || g[ti] == nil {
				continue
			}
			if blk.proj != nil {
				refDenseBackward(blk.proj, gres, in[ti], g[ti], 1)
				for i := range gres {
					gIn[ti][i] += gres[i]
				}
			} else {
				for i := range g[ti] {
					gIn[ti][i] += g[ti][i]
				}
			}
			for o := 0; o < blk.out; o++ {
				gv := g[ti][o]
				if gv == 0 || pre[ti][o] <= 0 {
					continue
				}
				blk.B.Grad[o] += gv
				for k := 0; k < blk.kernel; k++ {
					srcT := ti - (blk.kernel-1-k)*blk.dilation
					if srcT < 0 {
						continue
					}
					base := (o*blk.kernel + k) * blk.in
					w := blk.W.W[base : base+blk.in]
					gw := blk.W.Grad[base : base+blk.in]
					for i, xv := range in[srcT] {
						gw[i] += gv * xv
						gIn[srcT][i] += gv * w[i]
					}
				}
			}
		}
		g = gIn
	}
	return g
}

// refDenseBackward is Dense.BackwardBatch over refAccumGradNT and
// refAccumInputGradNT.
func refDenseBackward(d *Dense, GX, X, GY []float64, n int) {
	clear(GX)
	refAccumGradNT(d.W.Grad, d.B.Grad, GY, n, d.Out, X, d.In)
	refAccumInputGradNT(GX, GY, n, d.Out, d.W.W, d.In)
}

// refAccumGradNT accumulates dB[o] += Σ_i GY[i*m+o] and dW[o*k+j] += Σ_i
// GY[i*m+o]*X[i*k+j], samples ascending, zero output gradients skipped.
func refAccumGradNT(dW, dB, GY []float64, n, m int, X []float64, k int) {
	for i := 0; i < n; i++ {
		x := X[i*k : (i+1)*k]
		gy := GY[i*m : (i+1)*m]
		for o, g := range gy {
			if g == 0 {
				continue
			}
			dB[o] += g
			grow := dW[o*k : (o+1)*k]
			for j, xv := range x {
				grow[j] += g * xv
			}
		}
	}
}

// refAccumInputGradNT accumulates GX[i*k+j] += Σ_o GY[i*m+o]*W[o*k+j], o
// ascending, zero output gradients skipped.
func refAccumInputGradNT(GX, GY []float64, n, m int, W []float64, k int) {
	for i := 0; i < n; i++ {
		gx := GX[i*k : (i+1)*k]
		gy := GY[i*m : (i+1)*m]
		for o, g := range gy {
			if g == 0 {
				continue
			}
			row := W[o*k : (o+1)*k]
			for j, wv := range row {
				gx[j] += g * wv
			}
		}
	}
}

// backwardWidths are the Hidden, In and Channels sizes the reference test
// crosses: below, at and past one 4-lane group, chunks of one to four
// registers, and one or two whole 16-lane chunks with and without more.
var backwardWidths = []int{1, 3, 4, 6, 8, 13, 20, 32, 33}

// specialValue draws +Inf, -Inf or NaN.
func specialValue(src *rng.Source) float64 {
	return [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[src.Intn(3)]
}

// fillValues fills v with kernelValue draws, one in every eight special
// when special is set.
func fillValues(src *rng.Source, v []float64, special bool) {
	for i := range v {
		v[i] = kernelValue(src)
		if special && src.Intn(8) == 0 {
			v[i] = specialValue(src)
		}
	}
}

// fillModerate fills v from U(-1, 1): forward inputs that leave the gates
// off their saturation, so most gate rows carry a gradient. The backward
// operands are drawn afterwards.
func fillModerate(src *rng.Source, v []float64) {
	for i := range v {
		v[i] = 2*src.Float64() - 1
	}
}

// backwardCase is one model and tape with a backward pass to compare: run
// clears nothing, it accumulates into the parameters' gradients and
// returns the input gradients it computed.
type backwardCase struct {
	name   string
	params []*Param
	ref    func() [][]float64
	run    func() [][]float64
}

// checkBackward runs c's reference and its backward, with the AVX kernel
// as the CPU selects it and forced off, each from the same starting
// gradients, and compares every gradient and every returned input
// gradient. Values compare by bits, except that any two NaNs are equal:
// when both operands of a multiply or an add are NaN, x86 returns the
// first one's payload, and which operand comes first in the scalar loops
// is the compiler's choice.
func checkBackward(t *testing.T, c backwardCase, src *rng.Source) {
	t.Helper()
	start := make([][]float64, len(c.params))
	for i, p := range c.params {
		start[i] = make([]float64, len(p.Grad))
		fillValues(src, start[i], true)
	}
	pass := func(f func() [][]float64) (grads, outs [][]float64) {
		for i, p := range c.params {
			copy(p.Grad, start[i])
		}
		for _, o := range f() {
			outs = append(outs, append([]float64(nil), o...))
		}
		for _, p := range c.params {
			grads = append(grads, append([]float64(nil), p.Grad...))
		}
		return grads, outs
	}
	wantGrads, wantOuts := pass(c.ref)
	for _, avx := range []bool{useAVX, false} {
		var grads, outs [][]float64
		withKernels(avx, useGateAVX, func() { grads, outs = pass(c.run) })
		for i, p := range c.params {
			sameFloats(t, fmt.Sprintf("%s (AVX %v): %s.Grad", c.name, avx, p.Name), grads[i], wantGrads[i])
		}
		if len(outs) != len(wantOuts) {
			t.Fatalf("%s (AVX %v): %d input gradients, reference %d", c.name, avx, len(outs), len(wantOuts))
		}
		for i := range outs {
			sameFloats(t, fmt.Sprintf("%s (AVX %v): input gradient %d", c.name, avx, i), outs[i], wantOuts[i])
		}
	}
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestBackwardKernelMatchesScalar compares every backward pass, each of
// which runs through the two backward kernels (gradInput, commitRows),
// with its scalar reference loop above, at every pair of backwardWidths:
// the LSTM over two lanes (BackwardBatch, with no log and through a
// caller's GradLog) and over one lane from a given state with a gradient
// at every step (Backward), the GRU over two lanes likewise, the TCN (with
// and without its residual projection) and Dense (with no log and logged).
// The tapes come from forward passes over moderate inputs; then the
// operands only the weight gradients read (inputs, hidden states) are
// redrawn as normals of many magnitudes, ±0, subnormals, ±Inf and NaN, and
// so are the weights and the starting gradients. Each recurrent tape has a
// hidden unit whose every gate row is zero at every step, with Inf in its
// weight rows that only the zero skip keeps out, plus scattered zero gate
// rows. Then it runs the kernels themselves at every width from 1 to 33
// (kernelCase).
func TestBackwardKernelMatchesScalar(t *testing.T) {
	if !useAVX {
		t.Log("CPU has no AVX: only the scalar path runs")
	}
	const T, lanes = 3, 2
	src := rng.New(21)
	for _, hid := range backwardWidths {
		for _, in := range backwardWidths {
			where := fmt.Sprintf("Hidden %d In %d", hid, in)
			for _, c := range []backwardCase{
				lstmBatchCase(src, in, hid, T, lanes, false),
				lstmBatchCase(src, in, hid, T, lanes, true),
				lstmLaneCase(src, in, hid, T),
				gruBatchCase(src, in, hid, T, lanes, false),
				gruBatchCase(src, in, hid, T, lanes, true),
				tcnCase(src, in, hid, T+2),
				denseCase(src, in, hid, lanes+1, false),
				denseCase(src, in, hid, lanes+1, true),
			} {
				c.name = where + " " + c.name
				checkBackward(t, c, src)
			}
		}
	}
	for n := 1; n <= 33; n++ {
		for range 4 {
			checkBackward(t, kernelCase(src, n), src)
		}
	}
}

// kernelCase runs the two backward kernels directly at width n, against
// the scalar loop they split: k steps of rows = units*gates weight rows of
// stride ld >= n, each step's input gradient by gradInput and all k steps'
// weight rows by one commitRows and commitBias call. The operands mix
// normals of many magnitudes, ±0, subnormals, ±Inf and NaN, and the skip
// values s differ from the multipliers z in places: a zero s skips a
// nonzero z, and a nonzero s runs a zero z.
func kernelCase(src *rng.Source, n int) backwardCase {
	units, gates, k := 1+src.Intn(5), 1+src.Intn(4), 1+src.Intn(4)
	rows, ld := units*gates, n+src.Intn(3)
	w := make([]float64, rows*ld)
	z := make([]float64, k*rows)
	x := make([]float64, k*n)
	fillValues(src, w, true)
	fillValues(src, z, true)
	fillValues(src, x, true)
	s := append([]float64(nil), z...)
	for i := range s {
		switch src.Intn(6) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = 1
		}
	}
	b0 := make([]float64, k*n)
	fillValues(src, b0, true)
	wg, bg := NewParam("w", rows*ld), NewParam("b", rows)
	run := func(scalar bool) [][]float64 {
		b := append([]float64(nil), b0...)
		for i := 0; i < k; i++ {
			zi, si, xi, bi := z[i*rows:(i+1)*rows], s[i*rows:(i+1)*rows], x[i*n:(i+1)*n], b[i*n:(i+1)*n]
			if !scalar {
				gradInput(bi, w, zi, si, units, gates, ld)
				continue
			}
			for u := 0; u < units; u++ {
				for r := u; r < rows; r += units {
					if si[r] == 0 {
						continue
					}
					bg.Grad[r] += zi[r]
					for j, xv := range xi {
						wg.Grad[r*ld+j] += zi[r] * xv
						bi[j] += zi[r] * w[r*ld+j]
					}
				}
			}
		}
		if !scalar {
			commitBias(bg.Grad, z, s, rows, k)
			commitRows(wg.Grad, ld, z, s, x, rows, n, k)
		}
		return [][]float64{b}
	}
	return backwardCase{
		name:   fmt.Sprintf("kernels at width %d (%d units, %d gates, ld %d, %d steps)", n, units, gates, ld, k),
		params: []*Param{wg, bg},
		ref:    func() [][]float64 { return run(true) },
		run:    func() [][]float64 { return run(false) },
	}
}

// zeroUnit is the hidden unit whose gate rows the recurrent cases force to
// zero: the first, when there is another to carry the gradient.
func zeroUnit(hid int) int {
	if hid > 1 {
		return 0
	}
	return -1
}

// redraw overwrites each row of rows with fillValues draws, specials
// included.
func redraw(src *rng.Source, rows [][]float64) {
	for _, r := range rows {
		fillValues(src, r, true)
	}
}

// zeroRowWeights puts -Inf into each of the zero unit's gates rows of W
// (a gates*hid x k matrix), when there is a zero unit.
func zeroRowWeights(src *rng.Source, W []float64, gates, hid, k int) {
	if h := zeroUnit(hid); h >= 0 {
		for gate := 0; gate < gates; gate++ {
			W[(gate*hid+h)*k+src.Intn(k)] = math.Inf(-1)
		}
	}
}

// lstmOperands prepares an LSTM tape for the backward comparison: the zero
// unit gets i = 0, f = 1, g = 1 and o = 0 on every lane and step (which
// zeroes its four gate gradients while the gradient reaching it is
// finite), a random gate of another unit saturates per lane and step, the
// inputs and hidden states are redrawn, and the weights are redrawn with
// -Inf in the zero unit's rows.
func lstmOperands(src *rng.Source, l *LSTM, t *LSTMTape, lanes int) {
	H := l.Hidden
	for ti := 0; ti < t.T(); ti++ {
		for s := 0; s < lanes; s++ {
			if h := zeroUnit(H); h >= 0 {
				k := s*H + h
				t.i[ti][k], t.f[ti][k], t.g[ti][k], t.o[ti][k] = 0, 1, 1, 0
			}
			k := s*H + src.Intn(H)
			switch src.Intn(4) {
			case 0:
				t.i[ti][k] = 0
			case 1:
				t.f[ti][k] = 1
			case 2:
				t.g[ti][k] = -1
			default:
				t.o[ti][k] = 0
			}
		}
	}
	redraw(src, t.xs)
	redraw(src, t.h[:t.T()-1])
	fillValues(src, l.Wx.W, false)
	fillValues(src, l.Wh.W, false)
	zeroRowWeights(src, l.Wx.W, 4, H, l.In)
	zeroRowWeights(src, l.Wh.W, 4, H, H)
}

// passes is how many backward passes a batch case runs: a logged case runs
// two into one GradLog and commits once, which must equal two reference
// passes; an unlogged case runs one, adding at once.
func passes(logged bool) int {
	if logged {
		return 2
	}
	return 1
}

// logName names a batch case by whether its rows went through a GradLog.
func logName(name string, logged bool) string {
	if logged {
		return name + " (logged)"
	}
	return name
}

func lstmBatchCase(src *rng.Source, in, hid, T, lanes int, logged bool) backwardCase {
	l := NewLSTM("lstm", in, hid, rng.New(src.Uint64()))
	X := make([]float64, T*lanes*in)
	fillModerate(src, X)
	var tape LSTMTape
	l.ForwardBatch(&tape, X, lanes, T)
	lstmOperands(src, l, &tape, lanes)
	ghLast := make([]float64, lanes*hid)
	fillValues(src, ghLast, false)
	for s := 0; s < lanes; s++ {
		if h := zeroUnit(hid); h >= 0 {
			ghLast[s*hid+h] = 0
		}
	}
	return backwardCase{
		name:   logName("LSTM.BackwardBatch", logged),
		params: l.Params(),
		ref: func() [][]float64 {
			for range passes(logged) {
				for s := 0; s < lanes; s++ {
					gh := make([][]float64, T)
					gh[T-1] = ghLast[s*hid : (s+1)*hid]
					refBPTT(l, &tape, s, gh, nil)
				}
			}
			return nil
		},
		run: func() [][]float64 {
			if !logged {
				l.BackwardBatch(&tape, ghLast, nil)
				return nil
			}
			var log GradLog
			for range passes(logged) {
				l.BackwardBatch(&tape, ghLast, &log)
			}
			log.Commit()
			return nil
		},
	}
}

func lstmLaneCase(src *rng.Source, in, hid, T int) backwardCase {
	l := NewLSTM("lstm", in, hid, rng.New(src.Uint64()))
	seq := make([][]float64, T)
	for ti := range seq {
		seq[ti] = make([]float64, in)
		fillModerate(src, seq[ti])
	}
	h0, c0, dcT := make([]float64, hid), make([]float64, hid), make([]float64, hid)
	fillModerate(src, h0)
	fillModerate(src, c0)
	fillValues(src, dcT, false)
	var tape LSTMTape
	l.ForwardTape(&tape, seq, h0, c0)
	lstmOperands(src, l, &tape, 1)
	fillValues(src, h0, true) // the initial hidden state reaches only the Wh gradient too
	gh := make([][]float64, T)
	for ti := 1; ti < T; ti++ { // step 0 gets no gradient of its own
		gh[ti] = make([]float64, hid)
		fillValues(src, gh[ti], false)
	}
	if h := zeroUnit(hid); h >= 0 {
		dcT[h] = 0
		for _, g := range gh[1:] {
			g[h] = 0
		}
	}
	outs := func(gxs [][]float64, dh0, dc0 []float64) [][]float64 { return append(gxs, dh0, dc0) }
	return backwardCase{
		name:   "LSTM.Backward",
		params: l.Params(),
		ref:    func() [][]float64 { return outs(refBPTT(l, &tape, 0, gh, dcT)) },
		run: func() [][]float64 {
			gxs := make([][]float64, T)
			for ti := range gxs {
				gxs[ti] = make([]float64, in)
			}
			dh0, dc0 := l.Backward(&tape, gh, dcT, gxs)
			return outs(gxs, dh0, dc0)
		},
	}
}

// gruOperands prepares a GRU tape for the backward comparison: on every
// lane and step, z = 1 for the zero unit zeroes all three of its rows; r =
// 0 for a random unit zeroes its r row and the n row's Un multiplier, but
// not the n row itself; n = 1 for a random unit zeroes its n row. The
// inputs and hidden states are redrawn, and so are the weights, with -Inf
// in the zero unit's rows.
func gruOperands(src *rng.Source, g *GRU, t *GRUTape, lanes int) {
	H := g.Hidden
	zu := zeroUnit(H)
	for ti := 0; ti < t.T(); ti++ {
		for s := 0; s < lanes; s++ {
			if zu >= 0 {
				t.z[ti][s*H+zu] = 1
			}
			t.r[ti][s*H+src.Intn(H)] = 0
			t.n[ti][s*H+src.Intn(H)] = 1
		}
	}
	redraw(src, t.xs)
	redraw(src, t.h[:t.T()-1])
	fillValues(src, g.Wx.W, false)
	fillValues(src, g.Wh.W, false)
	zeroRowWeights(src, g.Wx.W, 3, H, g.In)
	zeroRowWeights(src, g.Wh.W, 3, H, H)
}

func gruBatchCase(src *rng.Source, in, hid, T, lanes int, logged bool) backwardCase {
	g := NewGRU("gru", in, hid, rng.New(src.Uint64()))
	X := make([]float64, T*lanes*in)
	fillModerate(src, X)
	var tape GRUTape
	g.ForwardBatch(&tape, X, lanes, T)
	gruOperands(src, g, &tape, lanes)
	ghLast := make([]float64, lanes*hid)
	fillValues(src, ghLast, false)
	for s := 0; s < lanes; s++ {
		if h := zeroUnit(hid); h >= 0 {
			ghLast[s*hid+h] = 0
		}
	}
	return backwardCase{
		name:   logName("GRU.BackwardBatch", logged),
		params: g.Params(),
		ref: func() [][]float64 {
			for range passes(logged) {
				for s := 0; s < lanes; s++ {
					gh := make([][]float64, T)
					gh[T-1] = ghLast[s*hid : (s+1)*hid]
					refGRUBackward(g, &tape, s, gh)
				}
			}
			return nil
		},
		run: func() [][]float64 {
			if !logged {
				g.BackwardBatch(&tape, ghLast, nil)
				return nil
			}
			var log GradLog
			for range passes(logged) {
				g.BackwardBatch(&tape, ghLast, &log)
			}
			log.Commit()
			return nil
		},
	}
}

func tcnCase(src *rng.Source, in, ch, T int) backwardCase {
	m := NewTCN("tcn", in, ch, 2, 2, rng.New(src.Uint64()))
	seq := make([][]float64, T)
	for ti := range seq {
		seq[ti] = make([]float64, in)
		fillModerate(src, seq[ti])
	}
	var tape TCNTape
	m.ForwardTape(&tape, seq)
	// Block inputs reach only their block's weight gradients; zero and NaN
	// preactivations exercise the ReLU's skip.
	for bi, blk := range m.Blocks {
		redraw(src, tape.inputs[bi])
		for _, pre := range tape.preacts[bi] {
			pre[src.Intn(blk.out)] = 0
			if src.Intn(3) == 0 {
				pre[src.Intn(blk.out)] = math.NaN()
			}
		}
		fillValues(src, blk.W.W, false)
	}
	// The last block's output 0 gets no gradient, so its -Inf weight stays
	// out.
	last := m.Blocks[len(m.Blocks)-1]
	last.W.W[src.Intn(last.kernel*last.in)] = math.Inf(-1)
	gy := make([][]float64, T)
	for ti := 1; ti < T; ti++ {
		gy[ti] = make([]float64, ch)
		fillValues(src, gy[ti], false)
		gy[ti][0] = 0
	}
	return backwardCase{
		name:   "TCN.Backward",
		params: m.Params(),
		ref:    func() [][]float64 { return refTCNBackward(m, &tape, gy) },
		run:    func() [][]float64 { return m.Backward(&tape, gy) },
	}
}

func denseCase(src *rng.Source, in, out, n int, logged bool) backwardCase {
	d := NewDense("dense", in, out, rng.New(src.Uint64()))
	X := make([]float64, n*in)
	GY := make([]float64, n*out)
	fillValues(src, X, true)
	fillValues(src, GY, false)
	fillValues(src, d.W.W, true)
	// Output 0 gets no gradient, so its -Inf weight stays out.
	for i := 0; i < n; i++ {
		GY[i*out] = 0
	}
	d.W.W[src.Intn(in)] = math.Inf(-1)
	GX := make([]float64, n*in)
	return backwardCase{
		name:   logName("Dense.BackwardBatch", logged),
		params: d.Params(),
		ref: func() [][]float64 {
			for range passes(logged) {
				refDenseBackward(d, GX, X, GY, n)
			}
			return [][]float64{GX}
		},
		run: func() [][]float64 {
			if !logged {
				d.BackwardBatch(GX, X, GY, n, nil)
				return [][]float64{GX}
			}
			var log GradLog
			for range passes(logged) {
				d.BackwardBatch(GX, X, GY, n, &log)
			}
			log.Commit()
			return [][]float64{GX}
		},
	}
}
