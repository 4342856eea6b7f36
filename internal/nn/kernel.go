package nn

// Two AVX kernels, one per direction. Forward, packed-weight products for
// the LSTM recurrence: on amd64 CPUs with AVX the full 16-row blocks of a
// weight matrix run through an assembly micro-kernel that computes four
// output rows per YMM register; everywhere else, and for the rows past the
// last full block, the scalar gemmNT runs. Backward, accumRows: every
// backward pass adds its weight rows' gradients and input gradients four
// lanes per YMM register, with the lanes past the last group in scalar Go.
//
// Both kernels are exact: each element keeps the scalar loop's chain of
// operations, each product and each sum rounded once. VMULPD/VADDPD round
// every lane as MULSD/ADDSD do, and neither kernel uses a fused
// multiply-add. So the AVX and scalar paths agree bit for bit.

// useAVX selects the AVX kernels. It is fixed from the CPU's features at
// start-up; only tests override it.
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

// accumRows runs one backward step's weight rows: for every row r =
// g*units+u with s[r] != 0, walked unit by unit (u ascending) and, within
// a unit, gate by gate (g ascending), it adds
//
//	a[r*ld+j] += z[r] * x[j]        (the row's weight gradient)
//	b[j]      += z[r] * w[r*ld+j]   (the input gradient)
//
// for j ascending over len(x). Each a element gets one multiply and one add
// per call; each b element sums the rows in walk order; a row whose s is
// ±0 adds nothing, which keeps the sign of zero accumulators and keeps an
// infinite x or w from turning them into NaN. s is z except where a row's
// multiplier can be zero while the row still runs (the GRU's candidate
// row). The AVX kernel runs the whole 4-lane groups of j; the loop below
// runs the rest (all of j without AVX) one lane at a time, holding that
// lane's b sum in a local across the rows.
func accumRows(a, b, w, x, z, s []float64, units, gates, ld int) {
	n, rows := len(x), units*gates
	if rows == 0 || n == 0 {
		return
	}
	if last := (rows-1)*ld + n; len(a) < last || len(w) < last || len(b) < n || len(z) < rows || len(s) < rows {
		panic("nn: accumRows operands too short")
	}
	vec := 0
	if useAVX {
		vec = n &^ 3
	}
	if vec > 0 {
		accumRowsAVX(&a[0], &b[0], &w[0], &x[0], &z[0], &s[0], units, gates, ld, vec)
	}
	for j := vec; j < n; j++ {
		xj, bj := x[j], b[j]
		for u := 0; u < units; u++ {
			for r := u; r < rows; r += units {
				if s[r] == 0 {
					continue
				}
				zr, o := z[r], r*ld+j
				a[o] += zr * xj
				bj += zr * w[o]
			}
		}
		b[j] = bj
	}
}
