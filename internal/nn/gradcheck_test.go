package nn

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

// Numerical gradient checks: every Backward implementation is verified
// against a central difference of a scalar loss. The loss is linear in the
// network output (L = sum coef*out) so the output gradient fed to Backward
// is exactly the coefficient tensor and the only thing under test is the
// chain rule through the model.

const (
	gcEps = 1e-5
	// tol = abs + rel * max(|analytic|, |numeric|). The central difference
	// carries O(eps^2) truncation error plus float64 cancellation; 1e-4
	// relative is far tighter than any plausible backprop bug.
	gcAbsTol = 1e-6
	gcRelTol = 1e-4
)

func gcClose(a, n float64) bool {
	return math.Abs(a-n) <= gcAbsTol+gcRelTol*math.Max(math.Abs(a), math.Abs(n))
}

// checkParamGrads compares the accumulated Param.Grad of every weight
// against (loss(w+eps)-loss(w-eps))/2eps. loss must recompute the forward
// pass from the module's current weights.
func checkParamGrads(t *testing.T, m Module, loss func() float64) {
	t.Helper()
	for _, p := range m.Params() {
		for i := range p.W {
			a := p.Grad[i]
			orig := p.W[i]
			p.W[i] = orig + gcEps
			lp := loss()
			p.W[i] = orig - gcEps
			lm := loss()
			p.W[i] = orig
			n := (lp - lm) / (2 * gcEps)
			if !gcClose(a, n) {
				t.Errorf("%s[%d]: analytic %.10g vs numeric %.10g", p.Name, i, a, n)
			}
		}
	}
}

// checkSliceGrads compares an analytic gradient for a float slice (e.g. the
// returned input gradient) against the central difference obtained by
// perturbing the slice in place.
func checkSliceGrads(t *testing.T, name string, x, gx []float64, loss func() float64) {
	t.Helper()
	if len(gx) != len(x) {
		t.Fatalf("%s: gradient length %d, input length %d", name, len(gx), len(x))
	}
	for i := range x {
		orig := x[i]
		x[i] = orig + gcEps
		lp := loss()
		x[i] = orig - gcEps
		lm := loss()
		x[i] = orig
		n := (lp - lm) / (2 * gcEps)
		if !gcClose(gx[i], n) {
			t.Errorf("%s[%d]: analytic %.10g vs numeric %.10g", name, i, gx[i], n)
		}
	}
}

// randVec fills a fresh vector from the source, bounded away from the ReLU
// kink by construction only in expectation — the tolerance absorbs the
// astronomically unlikely |preact| < eps draws.
func randVec(src *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = src.Range(-1, 1)
	}
	return v
}

func randSeq(src *rng.Source, T, n int) [][]float64 {
	s := make([][]float64, T)
	for t := range s {
		s[t] = randVec(src, n)
	}
	return s
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func seqDot(coef, out [][]float64) float64 {
	s := 0.0
	for t := range coef {
		s += dot(coef[t], out[t])
	}
	return s
}

func TestGradCheckDense(t *testing.T) {
	src := rng.New(11)
	d := NewDense("dense", 3, 2, src)
	x := randVec(src, 3)
	coef := randVec(src, 2)
	loss := func() float64 { return dot(coef, d.Forward(x)) }
	ZeroGrads(d)
	gx := d.Backward(x, coef)
	checkParamGrads(t, d, loss)
	checkSliceGrads(t, "dense.x", x, gx, loss)
}

func TestGradCheckMLP(t *testing.T) {
	src := rng.New(12)
	m := NewMLP("mlp", []int{4, 5, 3}, src)
	x := randVec(src, 4)
	coef := randVec(src, 3)
	loss := func() float64 {
		y, _ := m.Forward(x)
		return dot(coef, y)
	}
	ZeroGrads(m)
	_, tape := m.Forward(x)
	gx := m.Backward(tape, coef, nil)
	checkParamGrads(t, m, loss)
	checkSliceGrads(t, "mlp.x", x, gx, loss)
}

// TestGradCheckGRU checks the GRU's parameter gradients from its lanes'
// final hidden states, at one lane and at three.
func TestGradCheckGRU(t *testing.T) {
	const in, hid, T = 3, 4, 5
	for _, b := range []int{1, 3} {
		src := rng.New(13)
		g := NewGRU("gru", in, hid, src)
		X := randVec(src, T*b*in)
		coef := randVec(src, b*hid)
		var tape GRUTape
		loss := func() float64 { return dot(coef, g.ForwardBatch(&tape, X, b, T)) }
		ZeroGrads(g)
		g.ForwardBatch(&tape, X, b, T)
		g.BackwardBatch(&tape, coef, nil)
		checkParamGrads(t, g, loss)
	}
}

func TestGradCheckLSTM(t *testing.T) {
	src := rng.New(14)
	l := NewLSTM("lstm", 3, 4, src)
	seq := randSeq(src, 5, 3)
	coef := randSeq(src, 5, 4)
	loss := func() float64 {
		hs, _ := l.Forward(seq)
		return seqDot(coef, hs)
	}
	ZeroGrads(l)
	_, tape := l.Forward(seq)
	gxs := rowsOf(len(seq), l.In)
	l.Backward(tape, coef, nil, gxs)
	checkParamGrads(t, l, loss)
	for ti := range seq {
		checkSliceGrads(t, "lstm.x", seq[ti], gxs[ti], loss)
	}
}

// TestGradCheckLSTMInitialState covers the encoder-decoder path: gradients
// with respect to the initial hidden/cell states and the terminal-cell
// gradient hook.
func TestGradCheckLSTMInitialState(t *testing.T) {
	src := rng.New(15)
	l := NewLSTM("lstm0", 2, 3, src)
	seq := randSeq(src, 4, 2)
	coef := randSeq(src, 4, 3)
	h0 := randVec(src, 3)
	c0 := randVec(src, 3)
	cCoef := randVec(src, 3)
	loss := func() float64 {
		hs, tape := l.ForwardFrom(seq, h0, c0)
		_, cT := tape.LastHidden()
		return seqDot(coef, hs) + dot(cCoef, cT)
	}
	ZeroGrads(l)
	_, tape := l.ForwardFrom(seq, h0, c0)
	dh0, dc0 := l.Backward(tape, coef, cCoef, nil)
	checkParamGrads(t, l, loss)
	checkSliceGrads(t, "lstm.h0", h0, dh0, loss)
	checkSliceGrads(t, "lstm.c0", c0, dc0, loss)
}

func TestGradCheckTCN(t *testing.T) {
	src := rng.New(16)
	n := NewTCN("tcn", 3, 4, 2, 2, src)
	seq := randSeq(src, 6, 3)
	coef := randSeq(src, 6, 4)
	loss := func() float64 {
		out, _ := n.Forward(seq)
		return seqDot(coef, out)
	}
	ZeroGrads(n)
	_, tape := n.Forward(seq)
	gxs := n.Backward(tape, coef)
	checkParamGrads(t, n, loss)
	for ti := range seq {
		checkSliceGrads(t, "tcn.x", seq[ti], gxs[ti], loss)
	}
}
