package nn

// GradLog holds the parameter-gradient rows of backward passes until
// Commit adds them to the gradients, in the order they were logged.
//
// A backward step's weight rows split in two halves. The input gradient
// (gradInput) reads only the weights. The weight gradient is a set of rows
// z[r]*x added to Param.Grad (commitRows). A pass given a log computes the
// first half and logs the second, so passes over different examples can
// run on different goroutines while their logs commit one after another:
// each gradient element then receives its adds in the order serial passes
// would make them, and the sums are bit-identical. A pass given a nil log
// commits its rows itself before it returns: the LSTM and the GRU through
// a log of their tape's, one lane at a time, and Dense over its whole
// batch at once. Committing many steps in one call is what lets
// commitRows keep a row in registers across them.
//
// The log keeps one block per group of gradients that share their rows'
// multipliers (an LSTM's bias, Wx and Wh share dz), each block's steps in
// the order they were logged. Blocks must not overlap. The buffers are
// reused after Commit, so steady-state passes allocate nothing. A GradLog
// is not safe for concurrent use.
type GradLog struct {
	blocks []gradBlock
}

// weightRows is one weight gradient a logged step adds to: rows of stride
// ld in a, each gaining its multiplier times x.
type weightRows struct {
	a  []float64
	ld int
	x  []float64
}

// gradBlock is one group's logged steps: per step the multipliers z and,
// when they differ from z, the skip values s (rows each), and each weight
// gradient's input row. bias, when non-nil, gains z itself.
type gradBlock struct {
	key     *float64 // the group's first gradient
	rows, k int
	z, s    []float64
	bias    []float64
	w       []weightRows // x holds the target's k input rows back to back
}

// add logs one backward step of a group: for every row r with s[r] != 0
// (s nil means z), bias[r] += z[r] when bias is non-nil, and for each
// weight gradient w, w.a[r*w.ld+j] += z[r]*w.x[j] for j < len(w.x).
func (g *GradLog) add(z, s, bias []float64, ws ...weightRows) {
	b := g.block(z, s, bias, ws)
	b.z = append(b.z, z...)
	if s != nil {
		b.s = append(b.s, s...)
	}
	for i, w := range ws {
		b.w[i].x = append(b.w[i].x, w.x...)
	}
	b.k++
}

// blockSteps is how many steps a new block holds before its buffers first
// grow: a recurrent lane of up to 16 steps logs without regrowing.
const blockSteps = 16

// block returns the group's block, adding it on first sight with room for
// blockSteps steps.
func (g *GradLog) block(z, s, bias []float64, ws []weightRows) *gradBlock {
	first := bias
	if first == nil {
		first = ws[0].a
	}
	for i := range g.blocks {
		if b := &g.blocks[i]; b.key == &first[0] {
			if b.rows != len(z) || len(b.w) != len(ws) {
				panic("nn: GradLog step does not match its block")
			}
			return b
		}
	}
	b := gradBlock{key: &first[0], rows: len(z), bias: bias, z: make([]float64, 0, blockSteps*len(z))}
	if s != nil {
		b.s = make([]float64, 0, blockSteps*len(s))
	}
	for _, w := range ws {
		b.w = append(b.w, weightRows{a: w.a, ld: w.ld, x: make([]float64, 0, blockSteps*len(w.x))})
	}
	g.blocks = append(g.blocks, b)
	return &g.blocks[len(g.blocks)-1]
}

// Commit adds every logged step to the gradients, block by block and, in
// each, in the order the steps were logged, and empties the log.
func (g *GradLog) Commit() {
	for i := range g.blocks {
		b := &g.blocks[i]
		if b.k == 0 {
			continue
		}
		skip := b.s
		if skip == nil {
			skip = b.z
		}
		if b.bias != nil {
			commitBias(b.bias, b.z, skip, b.rows, b.k)
		}
		for j := range b.w {
			w := &b.w[j]
			commitRows(w.a, w.ld, b.z, skip, w.x, b.rows, len(w.x)/b.k, b.k)
			w.x = w.x[:0]
		}
		b.z, b.s, b.k = b.z[:0], b.s[:0], 0
	}
}
