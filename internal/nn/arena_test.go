package nn

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

func TestArenaViewsZeroedAndDisjoint(t *testing.T) {
	var a Arena
	x := a.Floats(5)
	y := a.Floats(7)
	for i := range x {
		x[i] = 1
	}
	for _, v := range y {
		if v != 0 {
			t.Fatalf("fresh view not zeroed: %v", y)
		}
	}
	y[0] = 2
	if x[4] != 1 {
		t.Fatal("views overlap")
	}
	// Appending to a view must not bleed into the next one.
	x = append(x, 9)
	if y[0] != 2 {
		t.Fatal("append into a view clobbered its neighbour")
	}
}

func TestArenaResetReusesSlab(t *testing.T) {
	var a Arena
	a.Floats(100)
	a.Reset()
	v := a.Floats(100)
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset()
		v = a.Floats(100)
		_ = a.Rows(10)
	})
	_ = v
	if allocs != 0 {
		t.Fatalf("steady-state arena draw allocated %v times", allocs)
	}
}

func TestArenaMarkRewind(t *testing.T) {
	var a Arena
	keep := a.Floats(4)
	for i := range keep {
		keep[i] = float64(i + 1)
	}
	m := a.Mark()
	scratch := a.Floats(4)
	scratch[0] = 99
	a.Rewind(m)
	again := a.Floats(4)
	if again[0] != 0 {
		t.Fatal("rewound draw not zeroed")
	}
	for i := range keep {
		if keep[i] != float64(i+1) {
			t.Fatal("rewind clobbered pre-mark view")
		}
	}
}

func TestArenaMatrixRowsContiguousButCapped(t *testing.T) {
	var a Arena
	m := a.Matrix(3, 4)
	if len(m) != 3 || len(m[0]) != 4 || cap(m[0]) != 4 {
		t.Fatalf("bad matrix shape: len=%d row len=%d cap=%d", len(m), len(m[0]), cap(m[0]))
	}
	m[1][2] = 7
	if m[0][2] != 0 || m[2][2] != 0 {
		t.Fatal("matrix rows alias")
	}
}

func TestGemmMatchesScalarGEMV(t *testing.T) {
	src := rng.New(7)
	const n, m, k = 5, 6, 9 // m not a multiple of rowTile: exercises the tail
	X := make([]float64, n*k)
	W := make([]float64, m*k)
	bias := make([]float64, m)
	for i := range X {
		X[i] = src.Float64() - 0.5
	}
	for i := range W {
		W[i] = src.Float64() - 0.5
	}
	for i := range bias {
		bias[i] = src.Float64() - 0.5
	}
	want := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for o := 0; o < m; o++ {
			s := bias[o]
			for j := 0; j < k; j++ {
				s += W[o*k+j] * X[i*k+j]
			}
			want[i*m+o] = s
		}
	}
	got := make([]float64, n*m)
	MatMulNT(got, X, n, W, m, k, bias)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("MatMulNT[%d] = %v, scalar GEMV = %v (must be bit-identical)", i, got[i], want[i])
		}
	}
	// Accumulating variant continues the chain.
	MatMulAccNT(got, X, n, W, m, k)
	for i := 0; i < n; i++ {
		for o := 0; o < m; o++ {
			s := want[i*m+o]
			for j := 0; j < k; j++ {
				s += W[o*k+j] * X[i*k+j]
			}
			if got[i*m+o] != s {
				t.Fatalf("MatMulAccNT[%d,%d] diverged from sequential chain", i, o)
			}
		}
	}
}

func TestDenseBatchMatchesPerSample(t *testing.T) {
	src := rng.New(11)
	const n, in, out = 7, 5, 3
	a := NewDense("a", in, out, src)
	b := NewDense("b", in, out, rng.New(11))
	X := make([]float64, n*in)
	GY := make([]float64, n*out)
	for i := range X {
		X[i] = src.Float64() - 0.5
	}
	for i := range GY {
		GY[i] = src.Float64() - 0.5
	}
	GY[2] = 0 // exercise the zero-gradient skip on both paths

	// Per-sample reference on a.
	wantY := make([]float64, n*out)
	wantGX := make([]float64, n*in)
	for s := 0; s < n; s++ {
		copy(wantY[s*out:], a.Forward(X[s*in:(s+1)*in]))
		copy(wantGX[s*in:], a.Backward(X[s*in:(s+1)*in], GY[s*out:(s+1)*out]))
	}
	// Batched on b (identical init).
	gotY := make([]float64, n*out)
	gotGX := make([]float64, n*in)
	b.ForwardBatch(gotY, X, n)
	b.BackwardBatch(gotGX, X, GY, n)
	for i := range wantY {
		if gotY[i] != wantY[i] {
			t.Fatalf("batched forward diverged at %d", i)
		}
	}
	for i := range wantGX {
		if gotGX[i] != wantGX[i] {
			t.Fatalf("batched input grad diverged at %d", i)
		}
	}
	for i := range a.W.Grad {
		if a.W.Grad[i] != b.W.Grad[i] {
			t.Fatalf("batched W grad diverged at %d: %v vs %v", i, b.W.Grad[i], a.W.Grad[i])
		}
	}
	for i := range a.B.Grad {
		if a.B.Grad[i] != b.B.Grad[i] {
			t.Fatalf("batched bias grad diverged at %d", i)
		}
	}
}

// TestDenseBackwardSkipsZeroGradients pins the zero-gradient skip that
// Dense's backward passes share through accumRows: a zero output gradient
// adds nothing, so an infinite input leaves that row's gradients finite
// and a -0 accumulator keeps its sign.
func TestDenseBackwardSkipsZeroGradients(t *testing.T) {
	d := NewDense("d", 2, 2, rng.New(1))
	negZero := math.Copysign(0, -1)
	for i := range d.W.Grad {
		d.W.Grad[i] = negZero
	}
	d.B.Grad[0] = negZero
	gx := d.BackwardInto(make([]float64, 2), []float64{math.Inf(1), 1}, []float64{0, 0.5})
	for _, g := range []float64{d.W.Grad[0], d.W.Grad[1], d.B.Grad[0]} {
		if math.Float64bits(g) != math.Float64bits(negZero) {
			t.Fatalf("row 0 gradient %v after a zero output gradient, want -0", g)
		}
	}
	for j, g := range gx {
		if want := 0.5 * d.W.W[2+j]; g != want {
			t.Fatalf("input gradient [%d] = %v, want %v", j, g, want)
		}
	}
}

func TestLSTMBatchMatchesPerSample(t *testing.T) {
	src := rng.New(3)
	const bsz, T, in, hid = 4, 6, 5, 8
	a := NewLSTM("a", in, hid, src)
	b := NewLSTM("b", in, hid, rng.New(3))
	// Step-major batch input and the equivalent per-sample sequences.
	X := make([]float64, T*bsz*in)
	for i := range X {
		X[i] = src.Float64() - 0.5
	}
	ghLast := make([]float64, bsz*hid)
	for i := range ghLast {
		ghLast[i] = src.Float64() - 0.5
	}

	wantLast := make([]float64, bsz*hid)
	for s := 0; s < bsz; s++ {
		seq := make([][]float64, T)
		for ti := 0; ti < T; ti++ {
			seq[ti] = X[(ti*bsz+s)*in : (ti*bsz+s+1)*in]
		}
		hs, tape := a.Forward(seq)
		copy(wantLast[s*hid:], hs[T-1])
		gh := make([][]float64, T)
		gh[T-1] = ghLast[s*hid : (s+1)*hid]
		a.Backward(tape, gh, nil)
	}

	var bt LSTMTape
	gotLast := b.ForwardBatch(&bt, X, bsz, T)
	for i := range wantLast {
		if gotLast[i] != wantLast[i] {
			t.Fatalf("batched forward diverged at %d: %v vs %v", i, gotLast[i], wantLast[i])
		}
	}
	b.BackwardBatch(&bt, ghLast)
	for pi, pa := range a.Params() {
		pb := b.Params()[pi]
		for i := range pa.Grad {
			if pa.Grad[i] != pb.Grad[i] {
				t.Fatalf("batched %s grad diverged at %d: %v vs %v", pa.Name, i, pb.Grad[i], pa.Grad[i])
			}
		}
	}
}

func TestTapeReuseIsDeterministic(t *testing.T) {
	// Running a second forward/backward through the same reused tapes must
	// produce bit-identical outputs and gradients to fresh tapes.
	build := func() (*LSTM, *Dense) {
		s := rng.New(21)
		return NewLSTM("l", 4, 6, s), NewDense("d", 6, 2, s)
	}
	run := func(l *LSTM, d *Dense, tape *LSTMTape, seq [][]float64) ([]float64, []float64) {
		var hs [][]float64
		if tape != nil {
			hs = l.ForwardTape(tape, seq, nil, nil)
		} else {
			hs, tape = l.Forward(seq)
		}
		last := hs[len(hs)-1]
		y := d.Forward(last)
		g := []float64{0.3, -0.7}
		gh := make([][]float64, len(hs))
		gh[len(hs)-1] = d.Backward(last, g)
		l.Backward(tape, gh, nil)
		return append([]float64(nil), y...), nil
	}
	mkSeq := func(shift float64) [][]float64 {
		seq := make([][]float64, 5)
		for i := range seq {
			seq[i] = []float64{0.1 * float64(i), shift, -0.2, 0.05}
		}
		return seq
	}

	lFresh, dFresh := build()
	run(lFresh, dFresh, nil, mkSeq(0.1))
	yFresh, _ := run(lFresh, dFresh, nil, mkSeq(0.4))

	lReuse, dReuse := build()
	var tape LSTMTape
	run(lReuse, dReuse, &tape, mkSeq(0.1))
	yReuse, _ := run(lReuse, dReuse, &tape, mkSeq(0.4))

	for i := range yFresh {
		if yFresh[i] != yReuse[i] {
			t.Fatalf("tape reuse changed output %d: %v vs %v", i, yReuse[i], yFresh[i])
		}
	}
	for pi, pf := range append(lFresh.Params(), dFresh.Params()...) {
		pr := append(lReuse.Params(), dReuse.Params()...)[pi]
		for i := range pf.Grad {
			if pf.Grad[i] != pr.Grad[i] {
				t.Fatalf("tape reuse changed %s grad at %d", pf.Name, i)
			}
		}
	}
	if math.IsNaN(yFresh[0]) {
		t.Fatal("sanity: output is NaN")
	}
}
