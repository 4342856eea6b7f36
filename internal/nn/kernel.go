package nn

// Three AVX kernels. Forward, packed-weight products for the LSTM and GRU
// recurrences: on amd64 CPUs with AVX the full 16-row blocks of a weight
// matrix run through an assembly micro-kernel that computes four output
// rows per YMM register; everywhere else, and for the rows past the last
// full block, the scalar gemmNT runs. Backward, in two halves: gradInput
// adds a step's input gradient, which reads only the weights, and
// commitRows adds logged weight-gradient rows to a parameter's gradient,
// in the order they were logged. Both run four lanes per YMM register and
// the lanes past the last 4-lane group under a mask.
//
// The kernels are exact: each element keeps the scalar loop's chain of
// operations, each product and each sum rounded once. VMULPD/VADDPD round
// every lane as MULSD/ADDSD do, and no kernel uses a fused multiply-add.
// So the AVX and scalar paths agree bit for bit.

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

// gradInput adds one backward step's input gradient to b: for every row r
// = g*units+u with s[r] != 0, walked unit by unit (u ascending) and, within
// a unit, gate by gate (g ascending),
//
//	b[j] += z[r] * w[r*ld+j]
//
// for j ascending over len(b), so each b element sums the rows in walk
// order. A row whose s is ±0 adds nothing, which keeps the sign of zero
// sums and keeps an infinite w from turning them into NaN. s is z except
// where a row's multiplier can be zero while the row still runs (the GRU's
// candidate row). The AVX kernel runs every lane, the ones past the last
// 4-lane group under a mask; the loop below is the scalar path.
func gradInput(b, w, z, s []float64, units, gates, ld int) {
	n, rows := len(b), units*gates
	if rows == 0 || n == 0 {
		return
	}
	if len(w) < (rows-1)*ld+n || len(z) < rows || len(s) < rows {
		panic("nn: gradInput operands too short")
	}
	if useAVX {
		gradInputAVX(&b[0], &w[0], &z[0], &s[0], units, gates, ld, n)
		return
	}
	for j, bj := range b {
		for u := 0; u < units; u++ {
			for r := u; r < rows; r += units {
				if s[r] != 0 {
					bj += z[r] * w[r*ld+j]
				}
			}
		}
		b[j] = bj
	}
}

// commitRows adds k logged steps of weight-gradient rows to the block a:
// for step i ascending and every row r < rows with s[i*rows+r] != 0,
//
//	a[r*ld+j] += z[i*rows+r] * x[i*n+j]
//
// for j < n. Each a element gets one multiply and one add per step whose
// row runs, in step order, so committing k steps at once equals k one-step
// calls, and a log of steps equals committing each step as it is made. A
// ±0 skip value keeps a zero element's sign and keeps an infinite x out.
// The AVX kernel holds a row's elements in registers across the steps and
// runs the lanes past the last 4-lane group under a mask; the loop below
// is the scalar path.
func commitRows(a []float64, ld int, z, s, x []float64, rows, n, k int) {
	if rows == 0 || n == 0 || k == 0 {
		return
	}
	if len(a) < (rows-1)*ld+n || len(z) < k*rows || len(s) < k*rows || len(x) < (k-1)*n+n {
		panic("nn: commitRows operands too short")
	}
	if useAVX {
		commitRowsAVX(&a[0], &z[0], &s[0], &x[0], rows, ld, n, k)
		return
	}
	for r := 0; r < rows; r++ {
		row := a[r*ld : r*ld+n]
		for i := 0; i < k; i++ {
			if s[i*rows+r] == 0 {
				continue
			}
			zr := z[i*rows+r]
			for j, xv := range x[i*n : i*n+n] {
				row[j] += zr * xv
			}
		}
	}
}

// commitBias adds k logged steps of bias-gradient rows to a: for step i
// ascending and every row r < rows with s[i*rows+r] != 0, a[r] +=
// z[i*rows+r].
func commitBias(a, z, s []float64, rows, k int) {
	a = a[:rows]
	for i := 0; i < k; i++ {
		zi, si := z[i*rows:(i+1)*rows], s[i*rows:(i+1)*rows]
		for r, sv := range si {
			if sv != 0 {
				a[r] += zi[r]
			}
		}
	}
}
