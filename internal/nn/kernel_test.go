package nn

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

// kernelValue draws a test operand: mostly mixed-magnitude normals, with
// signed zeros and subnormals mixed in.
func kernelValue(src *rng.Source) float64 {
	switch src.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return (src.Float64() - 0.5) * 0x1p-1020 // subnormal
	default:
		return (src.Float64() - 0.5) * math.Ldexp(1, src.Intn(41)-20)
	}
}

// withKernels runs f with the packed and the gate kernel choices set to
// avx and gate, restoring both after.
func withKernels(avx, gate bool, f func()) {
	savedAVX, savedGate := useAVX, useGateAVX
	useAVX, useGateAVX = avx, gate
	defer func() { useAVX, useGateAVX = savedAVX, savedGate }()
	f()
}

// TestPackedKernelMatchesScalar compares the packed kernel with the scalar
// gemmNT bit for bit, over shapes with no, one and several 16-row blocks,
// with and without a scalar tail, for the bias, nil-bias and accumulate
// forms; then once more with the AVX path off.
func TestPackedKernelMatchesScalar(t *testing.T) {
	modes := []struct {
		name      string
		bias, acc bool
	}{{"bias", true, false}, {"nil-bias", false, false}, {"acc", false, true}}
	check := func(t *testing.T) {
		src := rng.New(5)
		for _, m := range []int{4, 16, 24, 128, 130} {
			for _, k := range []int{1, 13, 32, 33} {
				for _, n := range []int{1, 4, 40} {
					X := make([]float64, n*k)
					W := make([]float64, m*k)
					bias := make([]float64, m)
					Y0 := make([]float64, n*m)
					for _, v := range [][]float64{X, W, bias, Y0} {
						for i := range v {
							v[i] = kernelValue(src)
						}
					}
					var ar Arena
					pk := packNT(&ar, W, m, k)
					if useAVX && m >= blockRows && pk.p == nil {
						t.Fatalf("m=%d k=%d: AVX on but nothing packed", m, k)
					}
					for _, mode := range modes {
						want := append([]float64(nil), Y0...)
						got := append([]float64(nil), Y0...)
						var b []float64
						if mode.bias {
							b = bias
						}
						gemmNT(want, X, n, W, m, k, b, mode.acc, 0)
						pk.mul(got, X, n, b, mode.acc)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("m=%d k=%d n=%d %s: Y[%d] = %v (%#x), scalar %v (%#x)",
									m, k, n, mode.name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
	if !useAVX {
		t.Log("CPU has no AVX: only the scalar path runs")
	}
	t.Run("cpu", check)
	t.Run("scalar", func(t *testing.T) { withKernels(false, useGateAVX, func() { check(t) }) })
}

// TestLSTMPackedMatchesScalar runs the LSTM's ForwardTape and the LSTM's
// and the GRU's ForwardBatch (b = 4) with the packed and the gate kernels
// each on (as the CPU selects them) and off, at a width with a scalar tail
// (Hidden 6: one 16-row block plus 8 rows, and one 4-lane gate group plus
// 2) and at a whole number of blocks and groups (Hidden 32), and requires
// the bits of the run with both off.
func TestLSTMPackedMatchesScalar(t *testing.T) {
	const in, T, b = 13, 10, 4
	cpuAVX, cpuGate := useAVX, useGateAVX
	for _, hid := range []int{6, 32} {
		l := NewLSTM("l", in, hid, rng.New(uint64(hid)))
		g := NewGRU("g", in, hid, rng.New(uint64(hid)+1))
		src := rng.New(9)
		X := make([]float64, T*b*in)
		for i := range X {
			X[i] = kernelValue(src)
		}
		seq := make([][]float64, T)
		for ti := range seq {
			seq[ti] = X[ti*b*in : ti*b*in+in]
		}
		run := func() map[string][]float64 {
			out := map[string][]float64{}
			var lt LSTMTape
			for _, h := range l.ForwardTape(&lt, seq, nil, nil) {
				out["LSTM.ForwardTape"] = append(out["LSTM.ForwardTape"], h...)
			}
			var bt LSTMTape
			out["LSTM.ForwardBatch"] = append([]float64(nil), l.ForwardBatch(&bt, X, b, T)...)
			var gb GRUTape
			out["GRU.ForwardBatch"] = append([]float64(nil), g.ForwardBatch(&gb, X, b, T)...)
			return out
		}
		var want map[string][]float64
		withKernels(false, false, func() { want = run() })
		for _, avx := range []bool{false, true} {
			for _, gate := range []bool{false, true} {
				var got map[string][]float64
				withKernels(avx && cpuAVX, gate && cpuGate, func() { got = run() })
				for name, w := range want {
					for i := range w {
						if math.Float64bits(got[name][i]) != math.Float64bits(w[i]) {
							t.Fatalf("Hidden %d %s[%d] with packed kernel %v, gate kernel %v: %v, scalar %v",
								hid, name, i, avx && cpuAVX, gate && cpuGate, got[name][i], w[i])
						}
					}
				}
			}
		}
	}
}
