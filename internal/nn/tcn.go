package nn

import "prism5g/internal/rng"

// TCN is a temporal convolutional network: a stack of causal dilated 1-D
// convolutions with ReLU and residual connections, the baseline of Chen et
// al. [9] used in the paper's comparison.
type TCN struct {
	In, Channels, Kernel int
	Blocks               []*tcnBlock
}

type tcnBlock struct {
	in, out, kernel, dilation int
	// W is out x (in*kernel); B is out; proj (optional 1x1) is out x in.
	W, B *Param
	proj *Dense // nil when in == out (identity residual)
}

// NewTCN builds a TCN with the given number of blocks; block b uses
// dilation 2^b, so the receptive field is kernel^... roughly 2^blocks.
func NewTCN(name string, in, channels, kernel, blocks int, src *rng.Source) *TCN {
	if kernel < 1 || blocks < 1 {
		panic("nn: TCN needs kernel >= 1 and blocks >= 1")
	}
	t := &TCN{In: in, Channels: channels, Kernel: kernel}
	for b := 0; b < blocks; b++ {
		bin := channels
		if b == 0 {
			bin = in
		}
		blk := &tcnBlock{
			in: bin, out: channels, kernel: kernel, dilation: 1 << b,
			W: NewParam(name+".W", channels*bin*kernel),
			B: NewParam(name+".b", channels),
		}
		blk.W.InitUniform(src, bin*kernel, channels)
		if bin != channels {
			blk.proj = NewDense(name+".proj", bin, channels, src)
		}
		t.Blocks = append(t.Blocks, blk)
	}
	return t
}

// Params implements Module.
func (t *TCN) Params() []*Param {
	var ps []*Param
	for _, b := range t.Blocks {
		ps = append(ps, b.W, b.B)
		if b.proj != nil {
			ps = append(ps, b.proj.Params()...)
		}
	}
	return ps
}

// TCNTape stores per-block inputs and pre-activations. A caller-owned tape
// reused across ForwardTape calls recycles its arena-backed buffers.
type TCNTape struct {
	inputs  [][][]float64 // per block: [T][in]
	preacts [][][]float64 // per block: [T][out] conv output before ReLU

	ar   Arena
	mark Mark
}

// ForwardTape runs the TCN over seq [T][In], recording into a reusable
// caller-owned tape, and returns [T][Channels]: a view into the tape,
// valid until its next use.
func (t *TCN) ForwardTape(tape *TCNTape, seq [][]float64) [][]float64 {
	tape.ar.Reset()
	tape.inputs = tape.inputs[:0]
	tape.preacts = tape.preacts[:0]
	cur := seq
	for _, blk := range t.Blocks {
		tape.inputs = append(tape.inputs, cur)
		pre := blk.conv(cur, &tape.ar)
		tape.preacts = append(tape.preacts, pre)
		next := tape.ar.Matrix(len(cur), blk.out)
		var res []float64
		if blk.proj != nil {
			res = tape.ar.Floats(blk.out)
		}
		for ti := range cur {
			out := next[ti]
			if blk.proj != nil {
				blk.proj.ForwardInto(res, cur[ti])
			} else {
				res = cur[ti]
			}
			for o := 0; o < blk.out; o++ {
				out[o] = ReLU(pre[ti][o]) + res[o]
			}
		}
		cur = next
	}
	tape.mark = tape.ar.Mark()
	return cur
}

// conv computes the causal dilated convolution outputs (pre-activation) as
// one GEMM per kernel tap: tap k's weights are repacked into a contiguous
// out x in matrix and multiplied against the time-shifted input rows.
// Each output element's accumulation chain — bias, then taps in ascending
// k with each tap's features in ascending order, causal-skipping taps that
// reach before the sequence — is bit-identical to the scalar triple loop.
func (b *tcnBlock) conv(seq [][]float64, ar *Arena) [][]float64 {
	T := len(seq)
	out := ar.Rows(T)
	outFlat := ar.Floats(T * b.out)
	for ti := range out {
		out[ti] = outFlat[ti*b.out : (ti+1)*b.out : (ti+1)*b.out]
		copy(out[ti], b.B.W)
	}
	// Gather the input rows into one flat T x in block for the GEMMs.
	m := ar.Mark()
	xFlat := ar.Floats(T * b.in)
	for ti, row := range seq {
		copy(xFlat[ti*b.in:(ti+1)*b.in], row)
	}
	wk := ar.Floats(b.out * b.in) // tap-k weights, repacked contiguously
	for k := 0; k < b.kernel; k++ {
		off := (b.kernel - 1 - k) * b.dilation
		if off >= T {
			continue // this tap never reaches a valid source step
		}
		for o := 0; o < b.out; o++ {
			copy(wk[o*b.in:(o+1)*b.in], b.W.W[(o*b.kernel+k)*b.in:(o*b.kernel+k+1)*b.in])
		}
		// Output steps ti >= off read source step ti-off.
		MatMulAccNT(outFlat[off*b.out:], xFlat[:(T-off)*b.in], T-off, wk, b.out, b.in)
	}
	ar.Rewind(m)
	return out
}

// Backward propagates gradients gy ([T][Channels], nil entries = zero)
// through the network, accumulating parameter grads, and returns the
// gradient with respect to the input sequence (views into the tape's
// scratch, valid until its next use).
func (t *TCN) Backward(tape *TCNTape, gy [][]float64) [][]float64 {
	ar := &tape.ar
	ar.Rewind(tape.mark)
	g := gy
	for bi := len(t.Blocks) - 1; bi >= 0; bi-- {
		blk := t.Blocks[bi]
		in := tape.inputs[bi]
		pre := tape.preacts[bi]
		T := len(in)
		gIn := ar.Matrix(T, blk.in)
		var gres []float64
		if blk.proj != nil {
			gres = ar.Floats(blk.in)
		}
		gz := ar.Floats(blk.out) // one step's conv output gradients through the ReLU
		for ti := 0; ti < T; ti++ {
			if ti >= len(g) || g[ti] == nil {
				continue
			}
			// Residual path.
			if blk.proj != nil {
				blk.proj.BackwardInto(gres, in[ti], g[ti])
				for i := range gres {
					gIn[ti][i] += gres[i]
				}
			} else {
				for i := range g[ti] {
					gIn[ti][i] += g[ti][i]
				}
			}
			// Conv path through ReLU. Output o's tap-k weights are row o
			// of the out x in matrix at offset k*in with stride kernel*in.
			// Each tap reads its own source step, so running the taps one
			// after another keeps every element's order of additions.
			for o, gv := range g[ti][:blk.out] {
				if pre[ti][o] <= 0 {
					gv = 0
				}
				gz[o] = gv
				if gv != 0 {
					blk.B.Grad[o] += gv
				}
			}
			for k := 0; k < blk.kernel; k++ {
				srcT := ti - (blk.kernel-1-k)*blk.dilation
				if srcT < 0 {
					continue
				}
				accumRows(blk.W.Grad[k*blk.in:], gIn[srcT], blk.W.W[k*blk.in:], in[srcT], gz, gz, blk.out, 1, blk.kernel*blk.in)
			}
		}
		g = gIn
	}
	return g
}
