package nn

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

// numericGrad computes d loss / d p.W[i] by central differences.
func numericGrad(p *Param, i int, loss func() float64) float64 {
	const eps = 1e-5
	orig := p.W[i]
	p.W[i] = orig + eps
	up := loss()
	p.W[i] = orig - eps
	down := loss()
	p.W[i] = orig
	return (up - down) / (2 * eps)
}

// checkGrads verifies analytic vs numeric gradients for every parameter of
// the module. forward must run the model and return the scalar loss;
// backward must run forward once, then backpropagate, leaving gradients in
// the params.
func checkGrads(t *testing.T, m Module, forward func() float64, backward func()) {
	t.Helper()
	ZeroGrads(m)
	backward()
	for _, p := range m.Params() {
		stride := 1
		if p.Size() > 40 {
			stride = p.Size() / 40
		}
		for i := 0; i < p.Size(); i += stride {
			want := numericGrad(p, i, forward)
			got := p.Grad[i]
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("%s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, got, want)
			}
		}
	}
}

func seqInput(src *rng.Source, T, F int) [][]float64 {
	seq := make([][]float64, T)
	for t := range seq {
		seq[t] = make([]float64, F)
		for f := range seq[t] {
			seq[t][f] = src.NormMS(0, 1)
		}
	}
	return seq
}

func TestDenseForward(t *testing.T) {
	d := &Dense{In: 2, Out: 2, W: NewParam("W", 4), B: NewParam("b", 2)}
	copy(d.W.W, []float64{1, 2, 3, 4})
	copy(d.B.W, []float64{10, 20})
	y := d.Forward([]float64{1, 1})
	if y[0] != 13 || y[1] != 27 {
		t.Fatalf("y = %v", y)
	}
}

func TestDenseGradients(t *testing.T) {
	src := rng.New(1)
	d := NewDense("d", 3, 2, src)
	x := []float64{0.5, -1.2, 2.0}
	target := []float64{1, -1}
	forward := func() float64 { return MSE(d.Forward(x), target) }
	backward := func() {
		y := d.Forward(x)
		d.Backward(x, MSEGrad(y, target))
	}
	checkGrads(t, d, forward, backward)
}

func TestDenseInputGradient(t *testing.T) {
	src := rng.New(2)
	d := NewDense("d", 3, 2, src)
	x := []float64{0.3, 0.7, -0.4}
	target := []float64{0.5, 0.5}
	y := d.Forward(x)
	gx := d.Backward(x, MSEGrad(y, target))
	// Numeric input gradient.
	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		up := MSE(d.Forward(x), target)
		x[i] = orig - eps
		down := MSE(d.Forward(x), target)
		x[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(gx[i]-want) > 1e-5 {
			t.Fatalf("gx[%d] = %f, want %f", i, gx[i], want)
		}
	}
}

func TestMLPGradients(t *testing.T) {
	src := rng.New(3)
	m := NewMLP("mlp", []int{4, 8, 3}, src)
	x := []float64{0.1, -0.5, 0.9, 0.3}
	target := []float64{0.2, 0.4, -0.1}
	forward := func() float64 {
		y, _ := m.Forward(x)
		return MSE(y, target)
	}
	backward := func() {
		y, tape := m.Forward(x)
		m.Backward(tape, MSEGrad(y, target), nil)
	}
	checkGrads(t, m, forward, backward)
}

func TestMLPPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMLP("bad", []int{3}, rng.New(1))
}

func TestLSTMGradients(t *testing.T) {
	src := rng.New(4)
	l := NewLSTM("lstm", 3, 5, src)
	seq := seqInput(src, 6, 3)
	target := make([]float64, 5)
	for i := range target {
		target[i] = 0.3
	}
	// Loss on the final hidden state.
	forward := func() float64 {
		hs, _ := l.Forward(seq)
		return MSE(hs[len(hs)-1], target)
	}
	backward := func() {
		hs, tape := l.Forward(seq)
		gh := make([][]float64, len(hs))
		gh[len(hs)-1] = MSEGrad(hs[len(hs)-1], target)
		l.Backward(tape, gh, nil, nil)
	}
	checkGrads(t, l, forward, backward)
}

func TestLSTMAllStepGradients(t *testing.T) {
	src := rng.New(5)
	l := NewLSTM("lstm", 2, 4, src)
	seq := seqInput(src, 5, 2)
	target := []float64{0.1, -0.2, 0.3, 0}
	forward := func() float64 {
		hs, _ := l.Forward(seq)
		total := 0.0
		for _, h := range hs {
			total += MSE(h, target)
		}
		return total
	}
	backward := func() {
		hs, tape := l.Forward(seq)
		gh := make([][]float64, len(hs))
		for i, h := range hs {
			gh[i] = MSEGrad(h, target)
		}
		l.Backward(tape, gh, nil, nil)
	}
	checkGrads(t, l, forward, backward)
}

func TestLSTMInputGradients(t *testing.T) {
	src := rng.New(6)
	l := NewLSTM("lstm", 2, 3, src)
	seq := seqInput(src, 4, 2)
	target := []float64{0.5, 0.5, 0.5}
	hs, tape := l.Forward(seq)
	gh := make([][]float64, len(hs))
	gh[len(hs)-1] = MSEGrad(hs[len(hs)-1], target)
	gxs := rowsOf(len(seq), l.In)
	l.Backward(tape, gh, nil, gxs)
	const eps = 1e-5
	for ti := range seq {
		for fi := range seq[ti] {
			orig := seq[ti][fi]
			seq[ti][fi] = orig + eps
			hsUp, _ := l.Forward(seq)
			up := MSE(hsUp[len(hsUp)-1], target)
			seq[ti][fi] = orig - eps
			hsDown, _ := l.Forward(seq)
			down := MSE(hsDown[len(hsDown)-1], target)
			seq[ti][fi] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(gxs[ti][fi]-want) > 1e-5 {
				t.Fatalf("gx[%d][%d] = %f, want %f", ti, fi, gxs[ti][fi], want)
			}
		}
	}
}

func TestLSTMForwardFromState(t *testing.T) {
	src := rng.New(7)
	l := NewLSTM("lstm", 2, 3, src)
	seq := seqInput(src, 4, 2)
	// Running the full sequence must equal running two halves chained.
	full, _ := l.Forward(seq)
	hs1, tape1 := l.Forward(seq[:2])
	h, c := tape1.LastHidden()
	hs2, _ := l.Dec2(seq[2:], h, c)
	_ = hs1
	for i := range hs2 {
		for j := range hs2[i] {
			if math.Abs(hs2[i][j]-full[2+i][j]) > 1e-12 {
				t.Fatalf("chained state mismatch at %d,%d", i, j)
			}
		}
	}
}

// Dec2 is a test helper alias for ForwardFrom returning hidden states only.
func (l *LSTM) Dec2(seq [][]float64, h, c []float64) ([][]float64, *LSTMTape) {
	return l.ForwardFrom(seq, h, c)
}

func TestTCNGradients(t *testing.T) {
	src := rng.New(8)
	tc := NewTCN("tcn", 3, 4, 2, 2, src)
	seq := seqInput(src, 6, 3)
	target := []float64{0.1, 0.2, -0.3, 0.4}
	forward := func() float64 {
		out, _ := tc.Forward(seq)
		return MSE(out[len(out)-1], target)
	}
	backward := func() {
		out, tape := tc.Forward(seq)
		gy := make([][]float64, len(out))
		gy[len(out)-1] = MSEGrad(out[len(out)-1], target)
		tc.Backward(tape, gy)
	}
	checkGrads(t, tc, forward, backward)
}

func TestTCNCausality(t *testing.T) {
	src := rng.New(9)
	tc := NewTCN("tcn", 2, 3, 2, 2, src)
	seq := seqInput(src, 8, 2)
	out1, _ := tc.Forward(seq)
	// Perturb the future: outputs at earlier steps must not change.
	seq[7][0] += 100
	out2, _ := tc.Forward(seq)
	for ti := 0; ti < 7; ti++ {
		for j := range out1[ti] {
			if out1[ti][j] != out2[ti][j] {
				t.Fatalf("TCN not causal: step %d changed", ti)
			}
		}
	}
	// The last step must change.
	changed := false
	for j := range out1[7] {
		if out1[7][j] != out2[7][j] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("future input had no effect at its own step")
	}
}

func TestSeq2SeqGradients(t *testing.T) {
	src := rng.New(10)
	s2s := NewSeq2Seq("s2s", 3, 4, 3, src)
	hist := seqInput(src, 5, 3)
	teacher := []float64{0.2, 0.5, 0.7}
	forward := func() float64 {
		preds, _ := s2s.Forward(hist, 0.1, teacher)
		return MSE(preds, teacher)
	}
	backward := func() {
		preds, tape := s2s.Forward(hist, 0.1, teacher)
		s2s.Backward(tape, MSEGrad(preds, teacher))
	}
	checkGrads(t, s2s, forward, backward)
}

func TestSeq2SeqAutoregressiveInference(t *testing.T) {
	src := rng.New(11)
	s2s := NewSeq2Seq("s2s", 2, 4, 5, src)
	hist := seqInput(src, 6, 2)
	preds, _ := s2s.Forward(hist, 0.3, nil)
	if len(preds) != 5 {
		t.Fatalf("preds = %d", len(preds))
	}
	for _, p := range preds {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatal("non-finite prediction")
		}
	}
	// Deterministic.
	preds2, _ := s2s.Forward(hist, 0.3, nil)
	for i := range preds {
		if preds[i] != preds2[i] {
			t.Fatal("inference not deterministic")
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - target||^2.
	p := NewParam("w", 4)
	target := []float64{1, -2, 3, 0.5}
	opt := NewAdam([]*Param{p}, 0.05)
	for iter := 0; iter < 2000; iter++ {
		for i := range p.W {
			p.Grad[i] = 2 * (p.W[i] - target[i])
		}
		opt.Step()
	}
	for i := range p.W {
		if math.Abs(p.W[i]-target[i]) > 0.01 {
			t.Fatalf("w[%d] = %f, want %f", i, p.W[i], target[i])
		}
	}
}

func TestAdamGradClipping(t *testing.T) {
	p := NewParam("w", 2)
	opt := NewAdam([]*Param{p}, 0.01)
	opt.ClipNorm = 1
	p.Grad[0], p.Grad[1] = 1e6, 1e6
	opt.Step() // must not produce NaN or huge step
	for _, w := range p.W {
		if math.IsNaN(w) || math.Abs(w) > 1 {
			t.Fatalf("clipping failed: w = %v", p.W)
		}
	}
	// Grad zeroed after step.
	if p.Grad[0] != 0 || p.Grad[1] != 0 {
		t.Fatal("grads not cleared")
	}
}

func TestDenseLearnsLinearMap(t *testing.T) {
	// End-to-end: a dense layer should learn y = 2x1 - x2 + 0.5.
	src := rng.New(12)
	d := NewDense("d", 2, 1, src)
	opt := NewAdam(d.Params(), 0.05)
	for iter := 0; iter < 3000; iter++ {
		x := []float64{src.NormMS(0, 1), src.NormMS(0, 1)}
		want := []float64{2*x[0] - x[1] + 0.5}
		y := d.Forward(x)
		d.Backward(x, MSEGrad(y, want))
		opt.Step()
	}
	if math.Abs(d.W.W[0]-2) > 0.05 || math.Abs(d.W.W[1]+1) > 0.05 || math.Abs(d.B.W[0]-0.5) > 0.05 {
		t.Fatalf("learned W=%v b=%v", d.W.W, d.B.W)
	}
}

func TestLSTMLearnsToSumSequence(t *testing.T) {
	// The LSTM + head should learn to output ~ the mean of a short input
	// sequence (an easy memory task that requires state).
	src := rng.New(13)
	l := NewLSTM("lstm", 1, 8, src)
	head := NewDense("head", 8, 1, src)
	params := append(l.Params(), head.Params()...)
	opt := NewAdam(params, 0.01)
	lossAt := func() float64 {
		var total float64
		for rep := 0; rep < 20; rep++ {
			s := rng.New(uint64(1000 + rep))
			seq := make([][]float64, 4)
			mean := 0.0
			for t := range seq {
				v := s.Range(0, 1)
				seq[t] = []float64{v}
				mean += v / 4
			}
			hs, _ := l.Forward(seq)
			y := head.Forward(hs[len(hs)-1])
			total += MSE(y, []float64{mean})
		}
		return total / 20
	}
	before := lossAt()
	for iter := 0; iter < 400; iter++ {
		seq := make([][]float64, 4)
		mean := 0.0
		for t := range seq {
			v := src.Range(0, 1)
			seq[t] = []float64{v}
			mean += v / 4
		}
		hs, tape := l.Forward(seq)
		y := head.Forward(hs[len(hs)-1])
		g := MSEGrad(y, []float64{mean})
		gh := make([][]float64, len(hs))
		gh[len(hs)-1] = head.Backward(hs[len(hs)-1], g)
		l.Backward(tape, gh, nil, nil)
		opt.Step()
	}
	after := lossAt()
	if after > before*0.5 {
		t.Fatalf("LSTM did not learn: loss %f -> %f", before, after)
	}
}

func TestNumParamsAndZeroGrads(t *testing.T) {
	src := rng.New(14)
	m := NewMLP("m", []int{3, 5, 2}, src)
	want := 3*5 + 5 + 5*2 + 2
	if got := NumParams(m); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	m.Layers[0].W.Grad[0] = 7
	ZeroGrads(m)
	if m.Layers[0].W.Grad[0] != 0 {
		t.Fatal("ZeroGrads failed")
	}
}

func TestActivations(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0)")
	}
	if Tanh(0) != 0 {
		t.Fatal("tanh(0)")
	}
	if ReLU(-1) != 0 || ReLU(2) != 2 {
		t.Fatal("relu")
	}
}

func TestMSE(t *testing.T) {
	if MSE([]float64{1, 2}, []float64{1, 2}) != 0 {
		t.Fatal("identical MSE != 0")
	}
	if v := MSE([]float64{0, 0}, []float64{3, 4}); v != 12.5 {
		t.Fatalf("MSE = %f", v)
	}
	g := MSEGrad([]float64{1, 0}, []float64{0, 0})
	if g[0] != 1 || g[1] != 0 {
		t.Fatalf("grad = %v", g)
	}
}

func TestGRUGradients(t *testing.T) {
	const in, hid, T = 3, 5, 6
	for _, b := range []int{1, 3} {
		src := rng.New(20)
		g := NewGRU("gru", in, hid, src)
		X := make([]float64, T*b*in)
		for i := range X {
			X[i] = src.NormMS(0, 1)
		}
		target := make([]float64, b*hid)
		for i := range target {
			target[i] = 0.2
		}
		var tape GRUTape
		forward := func() float64 {
			return MSE(g.ForwardBatch(&tape, X, b, T), target)
		}
		backward := func() {
			gh := MSEGrad(g.ForwardBatch(&tape, X, b, T), target)
			g.BackwardBatch(&tape, gh, nil)
		}
		checkGrads(t, g, forward, backward)
	}
}

func TestGRULearnsMeanTask(t *testing.T) {
	const T, hid = 4, 8
	// draw fills X with b step-major sequences of T values in [0, 1) and
	// returns each one's mean.
	draw := func(src *rng.Source, X []float64, b int) []float64 {
		means := make([]float64, b)
		for ti := 0; ti < T; ti++ {
			for s := 0; s < b; s++ {
				v := src.Range(0, 1)
				X[ti*b+s] = v
				means[s] += v / T
			}
		}
		return means
	}
	for _, b := range []int{1, 3} {
		src := rng.New(23)
		g := NewGRU("gru", 1, hid, src)
		head := NewDense("head", hid, 1, src)
		opt := NewAdam(append(g.Params(), head.Params()...), 0.01)
		var tape GRUTape
		lossAt := func() float64 {
			var total float64
			X := make([]float64, T)
			for rep := 0; rep < 20; rep++ {
				mean := draw(rng.New(uint64(2000+rep)), X, 1)
				total += MSE(head.Forward(g.ForwardBatch(&tape, X, 1, T)), mean)
			}
			return total / 20
		}
		before := lossAt()
		X := make([]float64, T*b)
		gh := make([]float64, b*hid)
		for iter := 0; iter < 400; iter++ {
			means := draw(src, X, b)
			hs := g.ForwardBatch(&tape, X, b, T)
			for s := 0; s < b; s++ {
				h := hs[s*hid : (s+1)*hid]
				gr := MSEGrad(head.Forward(h), means[s:s+1])
				copy(gh[s*hid:], head.Backward(h, gr))
			}
			g.BackwardBatch(&tape, gh, nil)
			opt.Step()
		}
		after := lossAt()
		if after > before*0.5 {
			t.Fatalf("%d lanes: GRU did not learn: %f -> %f", b, before, after)
		}
	}
}
