package nn

import "prism5g/internal/rng"

// Dense is a fully connected layer y = Wx + b.
type Dense struct {
	In, Out int
	W       *Param // Out x In, row-major
	B       *Param // Out
}

// NewDense creates an initialized dense layer.
func NewDense(name string, in, out int, src *rng.Source) *Dense {
	d := &Dense{
		In: in, Out: out,
		W: NewParam(name+".W", out*in),
		B: NewParam(name+".b", out),
	}
	d.W.InitUniform(src, in, out)
	return d
}

// Params implements Module.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward computes y = Wx + b.
func (d *Dense) Forward(x []float64) []float64 {
	y := make([]float64, d.Out)
	d.ForwardInto(y, x)
	return y
}

// ForwardInto computes y = Wx + b into a caller-owned buffer (len Out),
// allocating nothing.
func (d *Dense) ForwardInto(y, x []float64) []float64 {
	MatMulNT(y, x, 1, d.W.W, d.Out, d.In, d.B.W)
	return y
}

// ForwardBatch computes Y = X Wᵀ + b for n stacked inputs (X is n*In,
// Y is n*Out, both flat row-major) with the blocked batched kernel.
func (d *Dense) ForwardBatch(Y, X []float64, n int) {
	MatMulNT(Y, X, n, d.W.W, d.Out, d.In, d.B.W)
}

// BackwardInto adds dL/dW and dL/db at once, given the input x used in
// the forward pass and the output gradient gy, and writes dL/dx into a
// caller-owned buffer (len In), which it zeroes first. It is BackwardBatch
// on one row with no log.
func (d *Dense) BackwardInto(gx, x, gy []float64) []float64 {
	d.BackwardBatch(gx, x, gy, 1, nil)
	return gx
}

// BackwardBatch backpropagates a whole minibatch (X is the n*In forward
// input, GY the n*Out output gradient). The parameter-gradient rows go to
// log, or straight to the gradients when log is nil (see GradLog); either
// way every gradient element receives the samples' adds in ascending batch
// order, exactly as n successive one-row calls make them. A zero output
// gradient adds nothing. A non-nil GX (n*In, zeroed first) receives the
// input gradients, each sample's summing the output rows in ascending
// order.
func (d *Dense) BackwardBatch(GX, X, GY []float64, n int, log *GradLog) {
	clear(GX)
	if log == nil {
		commitBias(d.B.Grad, GY, GY, d.Out, n)
		commitRows(d.W.Grad, d.In, GY, GY, X, d.Out, d.In, n)
	}
	for i := 0; i < n; i++ {
		gy := GY[i*d.Out : (i+1)*d.Out]
		if log != nil {
			log.add(gy, nil, d.B.Grad, weightRows{d.W.Grad, d.In, X[i*d.In : (i+1)*d.In]})
		}
		if GX != nil {
			gradInput(GX[i*d.In:(i+1)*d.In], d.W.W, gy, gy, d.Out, 1, d.In)
		}
	}
}

// MLP is a stack of dense layers with ReLU between them (none after the
// last), the paper's per-CC prediction head.
type MLP struct {
	Layers []*Dense
}

// NewMLP creates an MLP with the given layer sizes, e.g. (in, hidden, out).
func NewMLP(name string, sizes []int, src *rng.Source) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewDense(name, sizes[i], sizes[i+1], src))
	}
	return m
}

// Params implements Module.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// MLPTape records the intermediates of one MLP forward pass. A tape owned
// by the caller can be reused across ForwardTape passes: its arena is
// rewound and the buffers are recycled, so steady-state passes allocate
// nothing.
type MLPTape struct {
	// inputs[i] is the input to layer i (post-activation of i-1).
	inputs [][]float64
	// preact[i] is the pre-activation output of layer i.
	preact [][]float64

	ar   Arena
	mark Mark // arena state after ForwardTape; Backward rewinds here
}

// ForwardTape runs the MLP recording intermediates into a reusable tape,
// and returns the output (a view into the tape, valid until its next use).
func (m *MLP) ForwardTape(t *MLPTape, x []float64) []float64 {
	t.ar.Reset()
	n := len(m.Layers)
	t.inputs = t.ar.Rows(n)
	t.preact = t.ar.Rows(n)
	cur := x
	for li, l := range m.Layers {
		t.inputs[li] = cur
		y := l.ForwardInto(t.ar.Floats(l.Out), cur)
		t.preact[li] = y
		if li < n-1 {
			act := t.ar.Floats(len(y))
			for i, v := range y {
				act[i] = ReLU(v)
			}
			cur = act
		} else {
			cur = y
		}
	}
	t.mark = t.ar.Mark()
	return cur
}

// Backward propagates the output gradient, its parameter-gradient rows
// going to log or, when log is nil, straight to the gradients, and returns
// the gradient with respect to the original input (a view into the tape's
// arena, valid until the tape's next use).
func (m *MLP) Backward(t *MLPTape, gy []float64, log *GradLog) []float64 {
	t.ar.Rewind(t.mark)
	g := gy
	for li := len(m.Layers) - 1; li >= 0; li-- {
		if li < len(m.Layers)-1 {
			// Undo the ReLU applied after layer li.
			masked := t.ar.Floats(len(g))
			for i, v := range t.preact[li] {
				if v > 0 {
					masked[i] = g[i]
				}
			}
			g = masked
		}
		l := m.Layers[li]
		gx := t.ar.Floats(l.In)
		l.BackwardBatch(gx, t.inputs[li], g, 1, log)
		g = gx
	}
	return g
}
