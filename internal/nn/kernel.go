package nn

// Packed-weight products for the LSTM recurrence. On amd64 CPUs with AVX
// the full 16-row blocks of a weight matrix run through an assembly
// micro-kernel that computes four output rows per YMM register; everywhere
// else, and for the rows past the last full block, the scalar gemmNT runs.
//
// The kernel is exact: every output element starts from its bias (or its
// running value) and adds w[j]*x[j] for j ascending, each product and each
// sum rounded once — VMULPD/VADDPD round every lane as MULSD/ADDSD do, and
// the kernel never uses a fused multiply-add. So the packed and scalar
// paths agree bit for bit.

// useAVX selects the packed AVX kernel. It is fixed from the CPU's features
// at start-up; only tests override it.
var useAVX = hasAVX()

// blockRows is the number of weight rows one kernel pass computes: four
// YMM accumulators of four float64 lanes each.
const blockRows = 16

// packedNT is an m×k row-major weight matrix w prepared for repeated
// products. p holds its full 16-row blocks in the kernel's layout (nil when
// the kernel is off); the rows past the last block are read from w.
type packedNT struct {
	w, p []float64
	m, k int
}

// packNT copies the full 16-row blocks of W into ar in the kernel's layout:
// each block is four 4-row tiles, stored so that the j-th weights of a
// tile's four rows sit next to each other, tile after tile:
// p[b*16*k + j*16 + r] = W[(b*16+r)*k + j]. The kernel's step j then reads
// one contiguous run of 16 weights into four registers.
func packNT(ar *Arena, W []float64, m, k int) packedNT {
	pk := packedNT{w: W, m: m, k: k}
	nb := m / blockRows
	if !useAVX || nb == 0 || k == 0 {
		return pk
	}
	pk.p = ar.Floats(nb * blockRows * k)
	for b := 0; b < nb; b++ {
		blk := pk.p[b*blockRows*k : (b+1)*blockRows*k]
		for r := 0; r < blockRows; r++ {
			row := W[(b*blockRows+r)*k : (b*blockRows+r+1)*k]
			for j, v := range row {
				blk[j*blockRows+r] = v
			}
		}
	}
	return pk
}

// mul computes Y = X * Wᵀ + bias over n rows of X as MatMulNT does, or
// with acc set accumulates Y += X * Wᵀ as MatMulAccNT does.
func (pk packedNT) mul(Y, X []float64, n int, bias []float64, acc bool) {
	m, k := pk.m, pk.k
	from := 0
	if pk.p != nil {
		nb := m / blockRows
		from = nb * blockRows
		for i := 0; i < n; i++ {
			y := Y[i*m : (i+1)*m]
			x := X[i*k : (i+1)*k]
			var init *float64 // nil: start from zero
			if acc {
				init = &y[0]
			} else if bias != nil {
				init = &bias[:m][0]
			}
			gemvBlocksAVX(&y[0], init, &pk.p[0], &x[0], k, nb)
		}
	}
	gemmNT(Y, X, n, pk.w, m, k, bias, acc, from)
}
