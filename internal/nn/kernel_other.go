//go:build !amd64

package nn

// hasAVX reports no AVX: off amd64 the scalar gemmNT is the only kernel.
func hasAVX() bool { return false }

// hasAVX2FMA reports no gate kernel: off amd64 the scalar Sigmoid and
// Tanh are the only path.
func hasAVX2FMA() bool { return false }

// gemvBlocksAVX is never called: packNT packs nothing while useAVX is off.
func gemvBlocksAVX(y, init, p, x *float64, k, nb int) {
	panic("nn: AVX kernel called without AVX")
}

// gradInputAVX and commitRowsAVX are never called: gradInput and
// commitRows run only their scalar loops while useAVX is off.
func gradInputAVX(b, w, z, s *float64, units, gates, ld, n int) {
	panic("nn: AVX kernel called without AVX")
}

func commitRowsAVX(a, z, s, x *float64, rows, ld, n, k int) {
	panic("nn: AVX kernel called without AVX")
}

// sigmoidsAVX and tanhsAVX are never called: useGateAVX is off.
func sigmoidsAVX(dst, src *float64, n int) int { panic("nn: gate kernel called without AVX2") }

func tanhsAVX(dst, src *float64, n int) int { panic("nn: gate kernel called without AVX2") }
