package nn

// Batched matrix kernels for the minibatch hot paths. Everything operates
// on flat row-major buffers: X is n rows of k features, W is m rows of k
// weights (the layout every layer here already uses), Y is n rows of m
// outputs.
//
// The kernels are blocked for cache reuse — a tile of W rows is streamed
// against every sample before the next tile is touched — but each output
// element's floating-point accumulation chain is kept bit-identical to the
// per-sample GEMV the layers used before batching: the reduction loop (j
// over k, or i over samples for gradients) always runs sequentially in
// ascending order onto a single accumulator. Batching therefore changes
// wall-clock and allocation behaviour, never values: the conformance
// goldens (internal/conform) stay byte-identical.

// rowTile is the number of W rows processed per block. Four keeps the
// accumulators in registers while each sample row is read once per tile.
const rowTile = 4

// MatMulNT computes Y = X * Wᵀ + bias: Y[i*m+o] = bias[o] + Σ_j
// X[i*k+j]*W[o*k+j]. A nil bias means zero. Y must hold n*m values.
func MatMulNT(Y, X []float64, n int, W []float64, m, k int, bias []float64) {
	gemmNT(Y, X, n, W, m, k, bias, false, 0)
}

// MatMulAccNT accumulates Y += X * Wᵀ, continuing each Y element's
// existing accumulation chain in ascending-j order.
func MatMulAccNT(Y, X []float64, n int, W []float64, m, k int) {
	gemmNT(Y, X, n, W, m, k, nil, true, 0)
}

// gemmNT computes output rows from..m-1 of MatMulNT (acc false) or
// MatMulAccNT (acc true), leaving the other rows of Y untouched.
func gemmNT(Y, X []float64, n int, W []float64, m, k int, bias []float64, acc bool, from int) {
	o := from
	for ; o+rowTile <= m; o += rowTile {
		r0 := W[o*k : (o+1)*k]
		r1 := W[(o+1)*k : (o+2)*k]
		r2 := W[(o+2)*k : (o+3)*k]
		r3 := W[(o+3)*k : (o+4)*k]
		for i := 0; i < n; i++ {
			x := X[i*k : (i+1)*k]
			y := Y[i*m+o : i*m+o+rowTile]
			var s0, s1, s2, s3 float64
			if acc {
				s0, s1, s2, s3 = y[0], y[1], y[2], y[3]
			} else if bias != nil {
				s0, s1, s2, s3 = bias[o], bias[o+1], bias[o+2], bias[o+3]
			}
			for j, xv := range x {
				s0 += r0[j] * xv
				s1 += r1[j] * xv
				s2 += r2[j] * xv
				s3 += r3[j] * xv
			}
			y[0], y[1], y[2], y[3] = s0, s1, s2, s3
		}
	}
	for ; o < m; o++ {
		row := W[o*k : (o+1)*k]
		for i := 0; i < n; i++ {
			x := X[i*k : (i+1)*k]
			var s float64
			if acc {
				s = Y[i*m+o]
			} else if bias != nil {
				s = bias[o]
			}
			for j, xv := range x {
				s += row[j] * xv
			}
			Y[i*m+o] = s
		}
	}
}

// AccumGradNT accumulates a batch's parameter gradients: for every output
// o, dB[o] += Σ_i GY[i*m+o] and dW[o*k+j] += Σ_i GY[i*m+o]*X[i*k+j], with
// the sample loop i ascending — the exact order the per-sample backward
// accumulated them — and zero output-gradients skipped the same way the
// per-sample path skips them. dB may be nil.
func AccumGradNT(dW, dB, GY []float64, n, m int, X []float64, k int) {
	for i := 0; i < n; i++ {
		x := X[i*k : (i+1)*k]
		gy := GY[i*m : (i+1)*m]
		for o, g := range gy {
			if g == 0 {
				continue
			}
			if dB != nil {
				dB[o] += g
			}
			grow := dW[o*k : (o+1)*k]
			for j, xv := range x {
				grow[j] += g * xv
			}
		}
	}
}

// AccumInputGradNT accumulates input gradients GX += GY * W: GX[i*k+j] +=
// Σ_o GY[i*m+o]*W[o*k+j], with the o loop ascending and zero gradients
// skipped, mirroring the per-sample backward's accumulation chain.
func AccumInputGradNT(GX, GY []float64, n, m int, W []float64, k int) {
	for i := 0; i < n; i++ {
		gx := GX[i*k : (i+1)*k]
		gy := GY[i*m : (i+1)*m]
		for o, g := range gy {
			if g == 0 {
				continue
			}
			row := W[o*k : (o+1)*k]
			for j, wv := range row {
				gx[j] += g * wv
			}
		}
	}
}
