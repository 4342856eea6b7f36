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

// withAVX runs f with the kernel choice set to on, restoring it after.
func withAVX(t *testing.T, on bool, f func(t *testing.T)) {
	t.Helper()
	saved := useAVX
	useAVX = on
	defer func() { useAVX = saved }()
	f(t)
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
	t.Run("scalar", func(t *testing.T) { withAVX(t, false, check) })
}

// TestLSTMPackedMatchesScalar runs ForwardTape and ForwardBatch with the
// kernel the CPU selects and with the scalar path, at a width with a
// scalar tail (Hidden 6: one block plus 8 rows) and at a whole number of
// blocks (Hidden 32), and requires equal bits.
func TestLSTMPackedMatchesScalar(t *testing.T) {
	const in, T, b = 13, 10, 4
	for _, hid := range []int{6, 32} {
		l := NewLSTM("l", in, hid, rng.New(uint64(hid)))
		src := rng.New(9)
		X := make([]float64, T*b*in)
		for i := range X {
			X[i] = kernelValue(src)
		}
		seq := make([][]float64, T)
		for ti := range seq {
			seq[ti] = X[ti*b*in : ti*b*in+in]
		}
		run := func() (hs, last []float64) {
			var tape LSTMTape
			for _, h := range l.ForwardTape(&tape, seq, nil, nil) {
				hs = append(hs, h...)
			}
			var bt LSTMBatchTape
			return hs, append([]float64(nil), l.ForwardBatch(&bt, X, b, T)...)
		}
		hs, last := run()
		var hs0, last0 []float64
		withAVX(t, false, func(*testing.T) { hs0, last0 = run() })
		for name, pair := range map[string][2][]float64{"ForwardTape": {hs, hs0}, "ForwardBatch": {last, last0}} {
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("Hidden %d %s[%d]: %v with the CPU's kernel, %v scalar", hid, name, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}
