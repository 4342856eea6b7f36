//go:build !amd64

package nn

// hasAVX reports no AVX: off amd64 the scalar gemmNT is the only kernel.
func hasAVX() bool { return false }

// gemvBlocksAVX is never called: packNT packs nothing while useAVX is off.
func gemvBlocksAVX(y, init, p, x *float64, k, nb int) {
	panic("nn: AVX kernel called without AVX")
}
